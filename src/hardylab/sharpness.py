"""Cut-off families and sharpness sweeps.

The plateau cut-off g_eps is 0 on [0, eps] and beyond 1/eps, 1 on
[2 eps, 1/(2 eps)], with monotone polynomial bridges; its reduced integrals
grow like -ln(4 eps^2), which drives maximizer-times-cut-off quotients down
to the sharp constants. psi_R is the piecewise-logarithmic Lipschitz profile
whose energy int r psi'^2 dr equals 2/ln R exactly and whose cross term
int psi psi' dr vanishes, the engine of the criticality argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functional import random_profile_slacks, reduce_radial_functional
from .profiles import Profile
from .quadrature import integrate_adaptive
from .scenarios import (CheckFailure, ParameterDomainError, Scenario,
                        closed_form_maximizer, scenario_catalog)

__all__ = [
    "CutoffSpec",
    "SweepRow",
    "BRIDGE_CONSTANTS",
    "make_cutoff",
    "sweep_quotient",
    "psi_energy",
    "psiR_deficit",
    "improved_weight_check",
]

# |g'| <= c/eps on the rising bridge and c*eps on the falling one; the bridge
# polynomial fixes c (the slope bound left free by the construction)
BRIDGE_CONSTANTS = {
    "quintic": {"max_slope": 15.0 / 8.0, "c_lower": 15.0 / 8.0, "c_upper": 15.0 / 4.0},
    "cubic": {"max_slope": 1.5, "c_lower": 1.5, "c_upper": 3.0},
}


@dataclass(frozen=True)
class CutoffSpec:
    kind: str                      # plain_g_eps | log_g_eps | psi_R | strip_f_eps
    epsilon_or_R: float
    smoothing: str = "quintic"

    def __post_init__(self) -> None:
        kinds = ("plain_g_eps", "log_g_eps", "psi_R", "strip_f_eps")
        if self.kind not in kinds:
            raise ParameterDomainError(f"unknown cutoff kind {self.kind!r}")
        if self.kind == "psi_R":
            if not self.epsilon_or_R > 1.0:
                raise ParameterDomainError(
                    f"psi_R needs R > 1, got {self.epsilon_or_R}")
        elif self.kind == "strip_f_eps":
            if not 0.0 < self.epsilon_or_R < 0.25:
                raise ParameterDomainError(
                    f"strip cutoff needs 0 < eps < 1/4, got {self.epsilon_or_R}")
        else:
            if not 0.0 < self.epsilon_or_R < 0.5:
                raise ParameterDomainError(
                    f"plateau cutoff needs 0 < eps < 1/2, got {self.epsilon_or_R}")
        if self.smoothing not in BRIDGE_CONSTANTS:
            raise ParameterDomainError(f"unknown smoothing {self.smoothing!r}")


def _step(smoothing: str):
    if smoothing == "quintic":
        return (lambda t: t * t * t * (10.0 + t * (-15.0 + 6.0 * t)),
                lambda t: 30.0 * t * t * (1.0 - t) ** 2)
    return (lambda t: t * t * (3.0 - 2.0 * t),
            lambda t: 6.0 * t * (1.0 - t))


def _plateau_profile(eps: float, smoothing: str) -> Profile:
    s, sp = _step(smoothing)
    lo, rise, fall, hi = eps, 2.0 * eps, 0.5 / eps, 1.0 / eps

    def value(r):
        r = np.asarray(r, dtype=float)
        t_up = np.clip((r - lo) / (rise - lo), 0.0, 1.0)
        t_dn = np.clip((hi - r) / (hi - fall), 0.0, 1.0)
        return s(t_up) * s(t_dn)

    def derivative(r):
        r = np.asarray(r, dtype=float)
        up = (r > lo) & (r < rise)
        dn = (r > fall) & (r < hi)
        out = np.zeros_like(r)
        out[up] = sp((r[up] - lo) / (rise - lo)) / (rise - lo)
        out[dn] = -sp((hi - r[dn]) / (hi - fall)) / (hi - fall)
        return out

    return Profile(value, derivative, (lo, hi), knots=(lo, rise, fall, hi))


def _log_composed_profile(eps: float, R: float, smoothing: str) -> Profile:
    base = _plateau_profile(eps, smoothing)
    # support in r: ln(R/r) in (eps, 1/eps)
    lo, hi = R * math.exp(-1.0 / eps), R * math.exp(-eps)

    def value(r):
        r = np.asarray(r, dtype=float)
        return base.value(np.log(R / r))

    def derivative(r):
        r = np.asarray(r, dtype=float)
        return -base.derivative(np.log(R / r)) / r

    knots = tuple(sorted(R * math.exp(-k) for k in base.knots))
    return Profile(value, derivative, (lo, hi), knots=knots)


def _psi_profile(R: float) -> Profile:
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


def _strip_profile(eps: float, smoothing: str) -> Profile:
    """Even cut-off in x: 1 for |x| <= (pi/2)/(1+2 eps), 0 beyond (pi/2)/(1+eps)."""
    s, sp = _step(smoothing)
    x_in = 0.5 * math.pi / (1.0 + 2.0 * eps)
    x_out = 0.5 * math.pi / (1.0 + eps)
    w = x_out - x_in

    def value(x):
        x = np.abs(np.asarray(x, dtype=float))
        t = np.clip((x_out - x) / w, 0.0, 1.0)
        return s(t)

    def derivative(x):
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        mid = (ax > x_in) & (ax < x_out)
        out = np.zeros_like(x)
        out[mid] = -np.sign(x[mid]) * sp((x_out - ax[mid]) / w) / w
        return out

    return Profile(value, derivative, (-x_out, x_out),
                   knots=(-x_out, -x_in, x_in, x_out))


def make_cutoff(spec: CutoffSpec, R: float = 1.0) -> Profile:
    """Build the cut-off profile; R is the log-weight scale for log_g_eps."""
    if spec.kind == "plain_g_eps":
        return _plateau_profile(spec.epsilon_or_R, spec.smoothing)
    if spec.kind == "log_g_eps":
        return _log_composed_profile(spec.epsilon_or_R, R, spec.smoothing)
    if spec.kind == "psi_R":
        return _psi_profile(spec.epsilon_or_R)
    return _strip_profile(spec.epsilon_or_R, spec.smoothing)


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


def _gaussian_a_reduced(scenario: Scenario, eps: float, smoothing: str,
                        tol: float) -> tuple[float, float, float]:
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
    g = _plateau_profile(eps, smoothing)
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
    kw = dict(tol=tol, rel_tol=tol, points=list(g.knots[1:-1]))
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


def sweep_quotient(scenario: Scenario, eps_grid, smoothing: str = "quintic",
                   tol: float = 1e-10) -> list[SweepRow]:
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
            num, den, h_eps = _gaussian_a_reduced(work, eps, smoothing, tol)
            if h_prev is not None and not h_eps > h_prev:
                raise CheckFailure(
                    "two-term normalizer h(eps) failed to diverge along the grid")
            h_prev = h_eps
            quotient = num / den
        else:
            cutoff = make_cutoff(CutoffSpec("plain_g_eps", eps, smoothing))
            u = closed_form_maximizer(work) * cutoff
            quotient = reduce_radial_functional(work, u, tol=tol).quotient
        deficit = quotient - scenario.sharp_constant
        rows.append(SweepRow(eps, quotient, deficit,
                             deficit * math.log(1.0 / (4.0 * eps * eps))))
    return rows


def psi_energy(R: float, tol: float = 1e-14) -> float:
    """int_0^inf r psi_R'(r)^2 dr; equals 2/ln R exactly."""
    psi = make_cutoff(CutoffSpec("psi_R", R))

    def integrand(r):
        r = np.asarray(r, dtype=float)
        return r * psi.derivative(r) ** 2

    lo, hi = psi.support
    return integrate_adaptive(integrand, lo, hi, tol=tol, rel_tol=tol,
                              points=list(psi.knots[1:-1])).value


def psiR_deficit(Q: float, p: float, R_grid) -> list[dict]:
    """Hardy deficit of u_R = r^(-(Q-p)/p) psi_R(r) on the critical weight.

    Rows carry the deficit and deficit * ln R; for p = 2 the cross term
    integrates to zero exactly and the deficit equals the psi-energy 2/ln R.
    """
    hardy = abs((Q - p) / p) ** p
    rows = []
    for R in R_grid:
        psi = make_cutoff(CutoffSpec("psi_R", float(R)))
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
    return {"min_slack": min(slacks, default=math.inf), "slacks": slacks}
