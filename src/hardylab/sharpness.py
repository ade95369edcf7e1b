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

The power family (power, cylindrical, strip and antisymmetric, and the log
scenarios, which are power pairs in L = ln(R/r)) is swept in t = ln r. With
u = r^gamma G(t), gamma the maximizer's exponent, the weights cancel to dt,
and the two bridges of g_eps are fixed profiles G = s(x), x in [0, 1]: on
the rising one t = ln eps + ln(1 + x), on the falling one
t = -ln eps + ln(1 - x/2). Hence q(eps) = c + R/(D + L) with
R = N - (c - z) D, where N and D are the bridges' numerator and denominator
integrals and z the zero-order weight, all independent of eps. By Picone's
identity R is also the integral of the remainder R_p(gamma G + G_t, gamma G)
>= 0 over the bridges; the sweep requires the two values to agree, which a
wrong c fails at every eps. psi_R is linear in t on its two bridges, so its
Hardy deficit is the same remainder integrated over s = psi in [0, 1].
gaussian_a, gaussian_b and the p = 2 annulus keep the truncated maximizer in
r, all integrals of the grid in one kernel call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functional import _reduce_batch, random_profile_slacks
from .profiles import Profile
from .quadrature import QuadratureError, integrate_batch
from .scenarios import (CheckFailure, Exponents, ParameterDomainError,
                        Scenario, closed_form_maximizer, scenario_catalog)

__all__ = [
    "SweepRow",
    "BRIDGE_MAX_SLOPE",
    "plateau_cutoff",
    "psi_cutoff",
    "strip_cutoff",
    "sweep_quotient",
    "psiR_deficit",
    "improved_weight_check",
]

# max |s'| of the quintic bridge s: |g_eps'| <= c/eps on the rising bridge
# (width eps) and 2c eps on the falling one (width 1/(2 eps)), c = 15/8
BRIDGE_MAX_SLOPE = 15.0 / 8.0
# target of each r-form sweep integral: relative-only for the reduced
# functional, absolute and relative for gaussian_a's fused integrals
_SWEEP_TOL = 1e-10
# relative target of the t-form integrals (the bridges and psi_R's deficit)
_BRIDGE_TOL = 1e-14
# the two bridge remainders must agree within this many summed error bounds
_PICONE_K = 10.0
_POWER_FAMILY = ("power", "cylindrical", "strip", "antisymmetric")


def _step(t):
    return t * t * t * (10.0 + t * (-15.0 + 6.0 * t))


def _step_slope(t):
    return 30.0 * t * t * (1.0 - t) ** 2


def _plateau_value(r, eps):
    """g_eps(r), elementwise; eps is a float or an array broadcast with r."""
    lo, rise, fall, hi = eps, 2.0 * eps, 0.5 / eps, 1.0 / eps
    t_up = np.clip((r - lo) / (rise - lo), 0.0, 1.0)
    t_dn = np.clip((hi - r) / (hi - fall), 0.0, 1.0)
    return _step(t_up) * _step(t_dn)


def _plateau_slope(r, eps):
    """g_eps'(r), elementwise; eps is a float or an array broadcast with r."""
    lo, rise, fall, hi = eps, 2.0 * eps, 0.5 / eps, 1.0 / eps
    up = (r > lo) & (r < rise)
    dn = (r > fall) & (r < hi)
    t_up = np.clip((r - lo) / (rise - lo), 0.0, 1.0)
    t_dn = np.clip((hi - r) / (hi - fall), 0.0, 1.0)
    return (np.where(up, _step_slope(t_up) / (rise - lo), 0.0)
            - np.where(dn, _step_slope(t_dn) / (hi - fall), 0.0))


def _plateau_length(eps: float) -> float:
    """L = ln(1/(4 eps^2)), g_eps's plateau length in t = ln r, written so
    that no power of eps under- or overflows."""
    return -2.0 * math.log(2.0 * eps)


def plateau_cutoff(eps: float) -> Profile:
    """g_eps: 0 on [0, eps] and beyond 1/eps, 1 on [2 eps, 1/(2 eps)]."""
    if not 0.0 < eps < 0.5:
        raise ParameterDomainError(
            f"plateau cutoff needs 0 < eps < 1/2, got {eps}")
    return Profile(lambda r: _plateau_value(np.asarray(r, dtype=float), eps),
                   lambda r: _plateau_slope(np.asarray(r, dtype=float), eps),
                   (eps, 1.0 / eps),
                   knots=(eps, 2.0 * eps, 0.5 / eps, 1.0 / eps))


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


def _integrals(f, lo, hi, points, tol: float, rel_tol: float) -> list:
    """The estimates of one integrate_batch call over owners without a
    singular end; raises the error of the first owner that failed."""
    n = len(lo)
    ests = integrate_batch(f, lo, hi, [False] * n, [False] * n, points,
                           tol=tol, rel_tol=rel_tol)
    for est in ests:
        if isinstance(est, QuadratureError):
            raise est
    return ests


def _picone(b, d, p: float):
    """Picone remainder R_p(b + d, b) = |b + d|^p - |b|^p - p |b|^(p-2) b d,
    >= 0 by convexity; exactly d^2 at p = 2."""
    if p == 2.0:
        return d * d
    return (np.abs(b + d) ** p - np.abs(b) ** p
            - p * np.abs(b) ** (p - 2.0) * b * d)


def _bridge_terms(x, gamma: float, p: float):
    """Integrands over x in [0, 1] of N, D and the Picone remainder, the two
    bridges summed: G = s(x) on both, with dt = dx/(1 + x) and
    G_t = (1 + x) s'(x) on the rising one, dt = dx/(2 - x) and
    G_t = -(2 - x) s'(x) on the falling one."""
    s, slope = _step(x), _step_slope(x)
    b = gamma * s
    num = den = rem = 0.0
    for w, d in ((1.0 + x, (1.0 + x) * slope), (2.0 - x, -(2.0 - x) * slope)):
        num = num + np.abs(b + d) ** p / w
        den = den + s ** p / w
        rem = rem + _picone(b, d, p) / w
    return num, den, rem


def _bridge_remainder(scenario: Scenario, c: float) -> tuple[float, float]:
    """(R, D) of a power-family sweep in t = ln r: R = N - (c - z) D.

    N, D and the Picone integral are the three owners of one kernel call.
    Raises CheckFailure unless R and the Picone integral agree within
    _PICONE_K times their summed error bounds (each integral's estimate,
    floored at its relative target): an error dc in c moves R by -D dc.
    """
    exps = scenario.exponents
    p = exps.p
    one = np.ones(1)
    # the maximizer is r^gamma, whose slope at r = 1 is gamma exactly
    gamma = float(closed_form_maximizer(scenario).derivative(one)[0])
    if abs(exps.Q - p * exps.theta + p * gamma) > 1e-12 * (1.0 + abs(exps.Q)):
        raise CheckFailure(
            f"maximizer r^{gamma!r} does not cancel the weights of "
            f"{scenario.name} in t = ln r")
    # a pure power of r, so its factor in t is its value at r = 1
    zero_order = scenario.numerator_zero_order
    z = 0.0 if zero_order is None else float(zero_order(one)[0])

    def integrand(x, owner):
        return np.stack(_bridge_terms(x, gamma, p))[owner, np.arange(owner.size)]

    ests = _integrals(integrand, [0.0] * 3, [1.0] * 3, [()] * 3, 0.0,
                      _BRIDGE_TOL)
    (N, dN), (D, dD), (P, dP) = (
        (e.value, max(e.error_estimate, _BRIDGE_TOL * abs(e.value)))
        for e in ests)
    R = N - (c - z) * D
    bound = _PICONE_K * (dN + abs(c - z) * dD + dP)
    if not abs(R - P) <= bound:
        raise CheckFailure(
            f"sweep remainder N - (c - z) D = {R!r} and its Picone integral "
            f"{P!r} differ by more than {bound:.3g}: c = {c!r} is not the "
            "constant of the maximizer")
    return R, D


def _gaussian_a_quotients(scenario: Scenario, eps_grid) -> list[tuple]:
    """(num/den, h_eps) of the exponential-maximizer sweep at each eps.

    With u = exp(r^alpha/(p beta)) g(r), the Gaussian weight cancels the
    maximizer exactly; evaluating the cancelled forms avoids overflow of
    exp(r^alpha/(p beta)) on the outer bridge. h_eps is the divergent
    normalizer of the two-term functional. The three integrals of every eps
    are owners of one kernel call; raises the error of the first failing
    integral in grid order (num, den, h at each eps).
    """
    p = scenario.exponents.p
    Q = scenario.exponents.Q
    alpha = scenario.extra["alpha"]
    beta = scenario.extra["beta"]
    corr = (p * beta / alpha) * (alpha * (p - 1.0) + Q - p)
    rate = alpha / (p * beta)
    eps = np.repeat(eps_grid, 3)

    def integrand(r, owner):
        e = eps[owner, None]
        g = _plateau_value(r, e)
        num = r ** (Q - 1.0) * np.abs(
            rate * r ** (alpha - 1.0) * g + _plateau_slope(r, e)) ** p
        den = r ** (Q - 1.0) * (r ** (p * (alpha - 1.0))
                                - corr * r ** (alpha * (p - 1.0) - p)) * g ** p
        h = r ** (Q - 1.0 + alpha * (p - 1.0)) * g ** p
        kind = (owner % 3)[:, None]
        return np.where(kind == 0, num, np.where(kind == 1, den, h))

    cuts = [plateau_cutoff(e) for e in eps_grid for _ in range(3)]
    ests = _integrals(integrand, [g.support[0] for g in cuts],
                      [g.support[1] for g in cuts],
                      [g.knots[1:-1] for g in cuts], _SWEEP_TOL, _SWEEP_TOL)
    return [(num.value / den.value, h.value)
            for num, den, h in zip(ests[::3], ests[1::3], ests[2::3])]


def _truncated_quotients(scenario: Scenario, eps_grid) -> list[tuple]:
    """(quotient, h_eps or None) of the maximizer times g_eps in r at each
    eps, all from one kernel call; raises the first error in grid order."""
    if scenario.name == "gaussian_a":
        return _gaussian_a_quotients(scenario, eps_grid)
    phi = closed_form_maximizer(scenario)
    cuts = [phi * plateau_cutoff(e) for e in eps_grid]
    eps = np.asarray(eps_grid, dtype=float)

    # the product rule as in Profile.__mul__, with the eps of each node's row
    def value(r, rows):
        return phi.value(r) * _plateau_value(r, eps[rows, None])

    def derivative(r, rows):
        e = eps[rows, None]
        return (phi.derivative(r) * _plateau_value(r, e)
                + phi.value(r) * _plateau_slope(r, e))

    reduced = _reduce_batch(scenario, [u.support for u in cuts],
                            [u.knots for u in cuts], value, derivative,
                            _SWEEP_TOL)
    return [(red.quotient, None) for red in reduced]


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
    checks. The power family takes each row from its eps-independent bridge
    integrals; the other scenarios reduce every eps in r."""
    eps_grid = [float(e) for e in eps_grid]
    if any(not 0.0 < e < 0.25 for e in eps_grid):
        raise ParameterDomainError(f"eps grid must lie in (0, 0.25): {eps_grid}")
    if any(b >= a for a, b in zip(eps_grid, eps_grid[1:])):
        raise ParameterDomainError("eps grid must be strictly decreasing")
    work = (_log_equivalent_scenario(scenario)
            if scenario.name.startswith("log") else scenario)
    c = scenario.sharp_constant
    rows = []
    if work.name in _POWER_FAMILY:
        R, D = _bridge_remainder(work, c)
        for eps in eps_grid:
            L = _plateau_length(eps)
            deficit = R / (D + L)
            rows.append(SweepRow(eps, c + deficit, deficit, deficit * L))
        return rows
    try:
        reduced = _truncated_quotients(work, eps_grid)
    except (CheckFailure, ValueError):
        # reduce eps by eps instead, so that the first eps in grid order
        # raises its own error, and only once the rows before it are checked
        reduced = (_truncated_quotients(work, [eps])[0] for eps in eps_grid)
    h_prev = None
    for eps, (quotient, h_eps) in zip(eps_grid, reduced):
        if h_eps is not None:
            if h_prev is not None and not h_eps > h_prev:
                raise CheckFailure(
                    "two-term normalizer h(eps) failed to diverge along the grid")
            h_prev = h_eps
        deficit = quotient - c
        rows.append(SweepRow(eps, quotient, deficit,
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
        gamma = -(Q - p) / p
        lnR = np.array(logs)

        def integrand(s, owner):
            ln = lnR[owner, None]
            a, b = 1.0 / ln, gamma * s
            return ln * (_picone(b, a, p) + _picone(b, -a, p))

        kinks = [[1.0 / (ln * abs(gamma))] if ln * abs(gamma) > 1.0 else []
                 for ln in logs]
        deficits = [est.value for est in _integrals(
            integrand, [0.0] * len(grid), [1.0] * len(grid), kinks, 0.0,
            _BRIDGE_TOL)]
    return [{"R": R, "deficit": d, "deficit_times_lnR": d * lnR}
            for R, d, lnR in zip(grid, deficits, logs)]


def improved_weight_check(Q: float, p: float, profile_count: int,
                          seed: int) -> dict:
    """Sampled slack of the improved-weight inequality over random profiles
    supported away from the origin; the theorem makes every slack >= 0."""
    scenario = scenario_catalog("improved_weight", Q=Q, p=p)
    slacks = [row["slack"] for row in
              random_profile_slacks(scenario, profile_count, seed)]
    return {"min_slack": min(slacks), "slacks": slacks}
