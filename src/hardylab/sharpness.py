"""Cut-off profiles and sharpness sweeps.

Three builders, each validating its own argument. `plateau_cutoff(eps)` is
g_eps: 0 on [0, eps] and beyond 1/eps, 1 on [2 eps, 1/(2 eps)], with quintic
bridges; its plateau has length L = ln(1/(4 eps^2)) in t = ln r, which drives
maximizer-times-cut-off quotients down to the sharp constants like 1/L.
`psi_cutoff(R)` is psi_R, the piecewise-logarithmic Lipschitz profile whose
energy int r psi'^2 dr equals 2/ln R exactly and whose cross term
int psi psi' dr vanishes, the engine of the criticality argument.
`strip_cutoff(eps)` is the strip's f_eps in the offset s = pi/2 - |x| from
the edge, where both knots are exact and the strip quotient's x-integrals run.

Every sweep runs in t = ln r. For u = phi G(t), phi the closed-form
maximizer, the weights cancel into psi = (V r^(Q-p))^(1/p) phi,
chi = psi r phi'/phi and rho = W r^Q phi^p, which the scenario's builder
sets as its `maximizer_in_t` (the log scenarios sweep as power pairs in
ln(R/r)), so the numerator is N = int |chi G + psi G_t|^p + z G^p dt and
the denominator D = int rho G^p dt. By Picone's identity N - c D is the
integral P of the remainder R_p(chi G + psi G_t, chi G) >= 0, which
vanishes where G is constant. Each eps contributes N, D and P as owners of
one kernel call over g_eps's support in t, with g_eps evaluated in t so that
eps may go down to the smallest float. A sweep row is c + P/D, and only
once N - c D and P agree, which a wrong c or a wrong maximizer fails at
every eps. psi_R is linear in t on its two bridges, so its Hardy deficit
is the same remainder integrated over s = psi in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .profiles import Profile
from .quadrature import integrate_batch
from .scenarios import (CheckFailure, Exponents, ParameterDomainError,
                        Scenario, closed_form_maximizer, scenario_catalog)

__all__ = [
    "SweepRow",
    "BRIDGE_MAX_SLOPE",
    "plateau_cutoff",
    "psi_cutoff",
    "strip_cutoff",
    "sweep_quotient",
    "psiR_deficit", "is_stable",
    "improved_weight_check",
]

# max |s'| of the quintic bridge s: |g_eps'| <= c/eps on the rising bridge
# (width eps) and 2c eps on the falling one (width 1/(2 eps)), c = 15/8
BRIDGE_MAX_SLOPE = 15.0 / 8.0
# relative target of each sweep integral (at 1e-14 gaussian_b's crawl)
_SWEEP_TOL = 1e-12
# relative target of psi_R's deficit integrals
_PSI_TOL = 1e-14
# N - c D and the Picone integral must agree within this many summed error
# bounds
_PICONE_K = 10.0


def _step(t):
    return t * t * t * (10.0 + t * (-15.0 + 6.0 * t))


def _step_slope(t):
    return 30.0 * t * t * (1.0 - t) ** 2


def _plateau_length(eps: float) -> float:
    """L = ln(1/(4 eps^2)), g_eps's plateau length in t = ln r, written so
    that no power of eps under- or overflows."""
    return -2.0 * math.log(2.0 * eps)


def plateau_cutoff(eps: float) -> Profile:
    """g_eps: 0 on [0, eps] and beyond 1/eps, 1 on [2 eps, 1/(2 eps)]."""
    if not 0.0 < eps < 0.5:
        raise ParameterDomainError(
            f"plateau cutoff needs 0 < eps < 1/2, got {eps}")
    lo, rise, fall, hi = eps, 2.0 * eps, 0.5 / eps, 1.0 / eps

    def bridges(r):
        r = np.asarray(r, dtype=float)
        return (np.clip((r - lo) / (rise - lo), 0.0, 1.0),
                np.clip((hi - r) / (hi - fall), 0.0, 1.0))

    def value(r):
        up, dn = bridges(r)
        return _step(up) * _step(dn)

    def derivative(r):
        # s' vanishes at both ends of the bridge, so clipped points give 0
        up, dn = bridges(r)
        return _step_slope(up) / (rise - lo) - _step_slope(dn) / (hi - fall)

    return Profile(value, derivative, (lo, hi), knots=(lo, rise, fall, hi))


def _psi_log_radius(R: float) -> float:
    """ln R of a valid psi_R radius: R > 1 with R^2 a finite float."""
    if not (R > 1.0 and math.isfinite(R * R)):
        raise ParameterDomainError(
            f"psi_R needs R > 1 with R^2 finite, got {R}")
    return math.log(R)


def psi_cutoff(R: float) -> Profile:
    """psi_R: 1 on [1/R, R], logarithmic down to 0 at R^-2 and R^2."""
    lnR = _psi_log_radius(R)
    k1, k2, k3, k4 = R ** -2, 1.0 / R, R, R ** 2

    def value(r):
        r = np.asarray(r, dtype=float)
        rs = np.clip(r, 1e-300, None)
        return np.select(
            [(r >= k1) & (r < k2), (r >= k2) & (r <= k3), (r > k3) & (r <= k4)],
            [2.0 + np.log(rs) / lnR, np.ones_like(rs), 2.0 - np.log(rs) / lnR],
            default=0.0,
        )

    def derivative(r):
        r = np.asarray(r, dtype=float)
        rs = np.clip(r, 1e-300, None)
        return np.select(
            [(r >= k1) & (r < k2), (r > k3) & (r <= k4)],
            [1.0 / (rs * lnR), -1.0 / (rs * lnR)],
            default=0.0,
        )

    return Profile(value, derivative, (k1, k4), knots=(k1, k2, k3, k4))


def strip_cutoff(eps: float) -> Profile:
    """f_eps in the offset s = pi/2 - |x| from the strip's edge: 0 for
    s <= s_out = (pi/2) eps/(1+eps), 1 for s >= s_in = pi eps/(1+2 eps), that
    is 0 beyond |x| = (pi/2)/(1+eps) and 1 for |x| <= (pi/2)/(1+2 eps).
    The derivative is d/ds."""
    if not 0.0 < eps < 0.25:
        raise ParameterDomainError(f"strip needs 0 < eps < 1/4, got {eps}")
    s_out = 0.5 * math.pi * eps / (1.0 + eps)
    s_in = math.pi * eps / (1.0 + 2.0 * eps)
    w = s_in - s_out

    def t(s):
        return np.clip((np.asarray(s, dtype=float) - s_out) / w, 0.0, 1.0)

    def value(s):
        return _step(t(s))

    def derivative(s):
        return _step_slope(t(s)) / w

    return Profile(value, derivative, (s_out, 0.5 * math.pi),
                   knots=(s_out, s_in))


@dataclass(frozen=True)
class SweepRow:
    epsilon: float
    quotient: float
    deficit: float
    scaled_deficit: float

    def __post_init__(self) -> None:
        if self.deficit < -1e-9 * (1.0 + abs(self.quotient)):
            raise CheckFailure(
                f"inequality violated in sweep: deficit {self.deficit} at "
                f"eps={self.epsilon}")


def _cutoff_in_t(t, ln_eps):
    """G = g_eps(e^t) and G_t, elementwise. The bridge variable is
    x = expm1(t - ln eps) on the rising bridge and -2 expm1(t + ln eps) on
    the falling one, each clipped to [0, 1], so no power of eps is formed."""
    up = np.clip(np.expm1(t - ln_eps), 0.0, 1.0)
    dn = np.clip(-2.0 * np.expm1(t + ln_eps), 0.0, 1.0)
    s_up, s_dn = _step(up), _step(dn)
    return s_up * s_dn, ((1.0 + up) * _step_slope(up) * s_dn
                         - (2.0 - dn) * _step_slope(dn) * s_up)


def _picone_integrals(scenario: Scenario, c: float, eps_grid):
    """The (len(eps_grid), 2) array of each eps's (D, P), for the maximizer
    times g_eps.

    From the scenario's maximizer in t (a log scenario has none: it sweeps
    as its power pair), N = int |chi G + psi G_t|^p + z G^p, D = int rho G^p
    and the Picone integral P = int R_p(chi G + psi G_t, chi G) of every eps
    are owners of one kernel call over g_eps's support in t, which raises
    the first failed integral before any eps is judged. The first eps, in
    grid order, where N - c D and P differ by more than _PICONE_K times
    their summed error bounds (each estimate floored at its relative
    target) raises CheckFailure: an error dc in c moves N - c D by -D dc.
    """
    from .identities import picone_remainder

    row = scenario.maximizer_in_t
    if row is None:     # no closed form: raises, naming the tag
        closed_form_maximizer(scenario)
    p = scenario.exponents.p
    a, b = scenario.pair.interval   # (0, inf) except for the annulus
    ln_eps = np.log(eps_grid)
    lo = ln_eps if a == 0.0 else np.maximum(ln_eps, math.log(a))
    hi = -ln_eps if math.isinf(b) else np.minimum(-ln_eps, math.log(b))
    if not np.all(lo < hi):
        raise ParameterDomainError(
            f"g_eps's support misses the scenario interval {(a, b)}")
    # seeds at 0, +-2^k and the bridge ends keep GK15 from stepping over
    # features near r = 1, such as gaussian_b's knee
    seeds = [0.0] + [s * 2.0 ** k for k in range(10) for s in (1.0, -1.0)]

    def integrand(t, owner):
        G, G_t = _cutoff_in_t(t, ln_eps[owner // 3, None])
        psi, chi, rho, z = row(t)
        lead, slope, Gp = chi * G, psi * G_t, G ** p
        terms = [np.abs(lead + slope) ** p + z * Gp, rho * Gp,
                 picone_remainder(p, lead, slope)]
        kind = (owner % 3)[:, None]
        return np.select([kind == k for k in range(3)], terms)

    est = integrate_batch(
        integrand, np.repeat(lo, 3), np.repeat(hi, 3),
        points=[seeds + [e + math.log(2.0), -e - math.log(2.0)]
                for e in ln_eps for _ in range(3)],
        tol=0.0, rel_tol=_SWEEP_TOL)
    N, D, P = est.value.reshape(-1, 3).T
    dN, dD, dP = np.maximum(est.error_estimate,
                            _SWEEP_TOL * np.abs(est.value)).reshape(-1, 3).T
    with np.errstate(over="ignore", invalid="ignore"):   # as floats would
        bound = _PICONE_K * (dN + c * dD + dP)
        apart = ~(np.abs(N - c * D - P) <= bound)
    if apart.any():
        i = int(apart.argmax())
        raise CheckFailure(
            f"sweep remainder N - c D = {float(N[i] - c * D[i])!r} and its "
            f"Picone integral {float(P[i])!r} differ by more than "
            f"{bound[i]:.3g}: c = {c!r} is not the constant of the maximizer")
    return np.stack([D, P], axis=1)


def _log_equivalent_scenario(scenario: Scenario) -> Scenario:
    """Log quotients in the variable L = ln(R/r).

    The substitution maps the log pair onto the power pair with effective
    theta_L = -theta/p on the flat measure (Q = 1); the sharp constants
    |(theta+1)/p|^p agree. Sweeping in L avoids the underflowing support
    edge r = R exp(-1/eps).
    """
    p = scenario.exponents.p
    theta = scenario.exponents.theta
    return scenario_catalog("power", Q=1.0, p=p, theta=-theta / p)


def sweep_quotient(scenario: Scenario, eps_grid) -> list[SweepRow]:
    """Rayleigh quotients of the truncated maximizer along a decreasing
    eps-grid, with the deficit scaled by L = ln(1/(4 eps^2)) for stability
    checks. Each row is c + P/D with deficit P/D (+inf where D <= 0), from
    the Picone integrals in t = ln r (log scenarios through their power pair
    in ln(R/r), checked against the log scenario's own c)."""
    eps_grid = [float(e) for e in eps_grid]
    if any(not 0.0 < e < 0.25 for e in eps_grid):
        raise ParameterDomainError(f"eps grid must lie in (0, 0.25): {eps_grid}")
    if any(b >= a for a, b in zip(eps_grid, eps_grid[1:])):
        raise ParameterDomainError("eps grid must be strictly decreasing")
    work = (_log_equivalent_scenario(scenario)
            if scenario.name.startswith("log") else scenario)
    c = scenario.sharp_constant
    rows = []
    for eps, (D, P) in zip(eps_grid,
                           _picone_integrals(work, c, eps_grid).tolist()):
        # where W changes sign, D <= 0 holds the inequality vacuously: the
        # reduced functional's quotient +inf
        deficit = P / D if D > 0.0 else math.inf
        rows.append(SweepRow(eps, c + deficit, deficit,
                             deficit * _plateau_length(eps)))
    return rows


def psiR_deficit(Q: float, p: float, R_grid) -> list[dict]:
    """Hardy deficit of u_R = r^gamma psi_R(r), gamma = -(Q-p)/p, on the
    critical weight; rows carry the deficit and deficit * ln R.

    In t = ln r the weights cancel, the plateau adds nothing and the cross
    term vanishes over the two bridges, where psi_R has slope +-a,
    a = 1/ln R. With s = psi there, the deficit is
    ln R int_0^1 R_p(gamma s + a, gamma s) + R_p(gamma s - a, gamma s) ds,
    whose integrand is >= 0. At p = 2 the remainder is a^2, so the deficit
    is 2/ln R exactly; other p integrate every R of the grid in one kernel
    call, split where |gamma| s = a.
    """
    Exponents(p, 1.0, Q)   # validates p and Q
    grid = [float(R) for R in R_grid]
    logs = [_psi_log_radius(R) for R in grid]
    if p == 2.0:
        deficits = [2.0 / lnR for lnR in logs]
    else:
        from .identities import picone_remainder

        gamma = -(Q - p) / p
        lnR = np.array(logs)

        def integrand(s, owner):
            ln = lnR[owner, None]
            a, b = 1.0 / ln, gamma * s
            return ln * (picone_remainder(p, b, a)
                         + picone_remainder(p, b, -a))

        slope = lnR * abs(gamma)
        kinks = np.divide(1.0, slope, out=np.full(slope.size, math.nan),
                          where=slope > 1.0)[:, None]
        n = len(grid)
        deficits = integrate_batch(
            integrand, [0.0] * n, [1.0] * n, points=kinks, tol=0.0,
            rel_tol=_PSI_TOL).value.tolist()
    return [{"R": R, "deficit": d, "deficit_times_lnR": d * lnR}
            for R, d, lnR in zip(grid, deficits, logs)]


def is_stable(scaled, deficits=()) -> bool:
    """Scaled deficits within a factor 2, and deficits (if given) falling."""
    return bool(max(scaled) <= 2.0 * min(scaled)
                and all(b < a for a, b in zip(deficits, deficits[1:])))


def improved_weight_check(Q: float, p: float, profile_count: int,
                          seed: int) -> dict:
    """Sampled slack of the improved-weight inequality over random profiles
    supported away from the origin; the theorem makes every slack >= 0."""
    from .functional import random_profile_slacks

    scenario = scenario_catalog("improved_weight", Q=Q, p=p)
    slacks = [row["slack"] for row in
              random_profile_slacks(scenario, profile_count, seed)]
    return {"min_slack": min(slacks), "slacks": slacks, "failure": (
        "improved-weight inequality violated (slack below -1e-9)"
        if min(slacks) < -1e-9 else None)}
