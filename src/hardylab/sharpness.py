"""Cut-off profiles and sharpness sweeps.

Three builders, each validating its own argument. `plateau_cutoff(eps)` is
g_eps: 0 on [0, eps] and beyond 1/eps, 1 on [2 eps, 1/(2 eps)], with quintic
bridges; its reduced integrals grow like -ln(4 eps^2), which drives
maximizer-times-cut-off quotients down to the sharp constants (log quotients
are swept in L = ln(R/r), where g_eps applies unchanged). `psi_cutoff(R)` is
psi_R, the piecewise-logarithmic Lipschitz profile whose energy
int r psi'^2 dr equals 2/ln R exactly and whose cross term int psi psi' dr
vanishes, the engine of the criticality argument. `strip_cutoff(eps)` is the
strip's f_eps in the offset s = pi/2 - |x| from the edge, where both knots
are exact and the strip quotient's x-integrals run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functional import random_profile_slacks, reduce_radial_functional
from .profiles import Profile
from .quadrature import integrate_adaptive
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
# target of each sweep integral: relative-only in the generic sweep
# (`reduce_radial_functional`), absolute and relative in `_gaussian_a_reduced`
_SWEEP_TOL = 1e-10


def _step(t):
    return t * t * t * (10.0 + t * (-15.0 + 6.0 * t))


def _step_slope(t):
    return 30.0 * t * t * (1.0 - t) ** 2


def plateau_cutoff(eps: float) -> Profile:
    """g_eps: 0 on [0, eps] and beyond 1/eps, 1 on [2 eps, 1/(2 eps)]."""
    if not 0.0 < eps < 0.5:
        raise ParameterDomainError(
            f"plateau cutoff needs 0 < eps < 1/2, got {eps}")
    lo, rise, fall, hi = eps, 2.0 * eps, 0.5 / eps, 1.0 / eps

    def value(r):
        r = np.asarray(r, dtype=float)
        t_up = np.clip((r - lo) / (rise - lo), 0.0, 1.0)
        t_dn = np.clip((hi - r) / (hi - fall), 0.0, 1.0)
        return _step(t_up) * _step(t_dn)

    def derivative(r):
        r = np.asarray(r, dtype=float)
        up = (r > lo) & (r < rise)
        dn = (r > fall) & (r < hi)
        out = np.zeros_like(r)
        out[up] = _step_slope((r[up] - lo) / (rise - lo)) / (rise - lo)
        out[dn] = -_step_slope((hi - r[dn]) / (hi - fall)) / (hi - fall)
        return out

    return Profile(value, derivative, (lo, hi), knots=(lo, rise, fall, hi))


def psi_cutoff(R: float) -> Profile:
    """psi_R: 1 on [1/R, R], logarithmic down to 0 at R^-2 and R^2."""
    if not (R > 1.0 and math.isfinite(R * R)):
        raise ParameterDomainError(
            f"psi_R needs R > 1 with R^2 finite, got {R}")
    lnR = math.log(R)
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


def _gaussian_a_reduced(scenario: Scenario,
                        eps: float) -> tuple[float, float, float]:
    """Fused numerator/denominator for the exponential-maximizer sweep.

    With u = exp(r^alpha/(p beta)) g(r), the Gaussian weight cancels the
    maximizer exactly; evaluating the cancelled forms avoids overflow of
    exp(r^alpha/(p beta)) on the outer bridge. Returns (num, den, h_eps)
    where h_eps is the divergent normalizer of the two-term functional.
    """
    p = scenario.exponents.p
    Q = scenario.exponents.Q
    alpha = scenario.extra["alpha"]
    beta = scenario.extra["beta"]
    corr = (p * beta / alpha) * (alpha * (p - 1.0) + Q - p)
    g = plateau_cutoff(eps)
    rate = alpha / (p * beta)

    def num_integrand(r):
        r = np.asarray(r, dtype=float)
        return r ** (Q - 1.0) * np.abs(
            rate * r ** (alpha - 1.0) * g.value(r) + g.derivative(r)) ** p

    def den_integrand(r):
        r = np.asarray(r, dtype=float)
        return r ** (Q - 1.0) * (r ** (p * (alpha - 1.0))
                                 - corr * r ** (alpha * (p - 1.0) - p)) \
            * g.value(r) ** p

    def h_integrand(r):
        r = np.asarray(r, dtype=float)
        return r ** (Q - 1.0 + alpha * (p - 1.0)) * g.value(r) ** p

    lo, hi = g.support
    kw = dict(tol=_SWEEP_TOL, rel_tol=_SWEEP_TOL, points=list(g.knots[1:-1]))
    num = integrate_adaptive(num_integrand, lo, hi, **kw).value
    den = integrate_adaptive(den_integrand, lo, hi, **kw).value
    h_eps = integrate_adaptive(h_integrand, lo, hi, **kw).value
    return num, den, h_eps


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
    eps-grid, with the log-rate-scaled deficit for stability checks."""
    eps_grid = [float(e) for e in eps_grid]
    if any(not 0.0 < e < 0.25 for e in eps_grid):
        raise ParameterDomainError(f"eps grid must lie in (0, 0.25): {eps_grid}")
    if any(b >= a for a, b in zip(eps_grid, eps_grid[1:])):
        raise ParameterDomainError("eps grid must be strictly decreasing")
    if scenario.name.startswith("log"):
        work = _log_equivalent_scenario(scenario)
        if abs(work.sharp_constant - scenario.sharp_constant) > 1e-12:
            raise CheckFailure("log substitution lost the sharp constant")
    else:
        work = scenario
    rows = []
    h_prev = None
    for eps in eps_grid:
        if work.name == "gaussian_a":
            num, den, h_eps = _gaussian_a_reduced(work, eps)
            if h_prev is not None and not h_eps > h_prev:
                raise CheckFailure(
                    "two-term normalizer h(eps) failed to diverge along the grid")
            h_prev = h_eps
            quotient = num / den
        else:
            u = closed_form_maximizer(work) * plateau_cutoff(eps)
            quotient = reduce_radial_functional(work, u, tol=_SWEEP_TOL).quotient
        deficit = quotient - scenario.sharp_constant
        rows.append(SweepRow(eps, quotient, deficit,
                             deficit * math.log(1.0 / (4.0 * eps * eps))))
    return rows


def psiR_deficit(Q: float, p: float, R_grid) -> list[dict]:
    """Hardy deficit of u_R = r^(-(Q-p)/p) psi_R(r) on the critical weight.

    Rows carry the deficit and deficit * ln R; for p = 2 the cross term
    integrates to zero exactly and the deficit equals the psi-energy 2/ln R.
    """
    Exponents(p, 1.0, Q)   # validates p and Q
    hardy = abs((Q - p) / p) ** p
    rows = []
    for R in R_grid:
        psi = psi_cutoff(float(R))
        ex = -(Q - p) / p

        def num_integrand(r, _psi=psi, _ex=ex):
            r = np.asarray(r, dtype=float)
            du = _ex * r ** (_ex - 1.0) * _psi.value(r) + r ** _ex * _psi.derivative(r)
            return r ** (Q - 1.0) * np.abs(du) ** p

        def den_integrand(r, _psi=psi, _ex=ex):
            r = np.asarray(r, dtype=float)
            return r ** (Q - 1.0 - p) * np.abs(r ** _ex * _psi.value(r)) ** p

        lo, hi = psi.support
        kw = dict(tol=1e-12, rel_tol=1e-12, points=list(psi.knots[1:-1]))
        num = integrate_adaptive(num_integrand, lo, hi, **kw).value
        den = integrate_adaptive(den_integrand, lo, hi, **kw).value
        deficit = num - hardy * den
        rows.append({"R": float(R), "deficit": deficit,
                     "deficit_times_lnR": deficit * math.log(R)})
    return rows


def improved_weight_check(Q: float, p: float, profile_count: int,
                          seed: int) -> dict:
    """Sampled slack of the improved-weight inequality over random profiles
    supported away from the origin; the theorem makes every slack >= 0."""
    scenario = scenario_catalog("improved_weight", Q=Q, p=p)
    slacks = [row["slack"] for row in
              random_profile_slacks(scenario, profile_count, seed)]
    return {"min_slack": min(slacks), "slacks": slacks}
