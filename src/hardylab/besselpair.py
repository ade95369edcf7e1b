"""Certification of Bessel pairs along the radial ODE

    (V(r) r^(Q-1) |phi'|^(p-2) phi')' + lam W(r) r^(Q-1) |phi|^(p-2) phi = 0.

The state is (phi, m) with the p-Laplacian flux m = V r^(Q-1) |phi'|^(p-2) phi'
as momentum, which stays smooth across phi' = 0; phi' is recovered by the
inversion |m|^(1/(p-1)) with the sign carried separately. Integration never
starts at the singular origin: initial data is seeded at an interior point
from the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicHermiteSpline

from .profiles import Profile
from .scenarios import Exponents, RadialWeightPair, Scenario

__all__ = [
    "RadialODEState",
    "BesselCertificate",
    "ODESolution",
    "SingularCoefficientError",
    "DivergenceError",
    "UnsupportedScenarioError",
    "integrate_bessel_ode",
    "verify_bessel_pair",
    "closed_form_maximizer",
    "ode_residuals",
    "improved_weight_auxiliary_pair",
    "momentum_from_profile",
]

_BLOWUP = 1e12


class SingularCoefficientError(RuntimeError):
    """V vanishes (or is negative) on the integration path."""


class DivergenceError(RuntimeError):
    """|phi| exceeded the blow-up threshold during integration."""


class UnsupportedScenarioError(ValueError):
    """The scenario has no closed-form maximizer."""


@dataclass(frozen=True)
class RadialODEState:
    r: float
    phi: float
    momentum: float

    def __post_init__(self) -> None:
        if not self.r > 0:
            raise ValueError(f"states live on r > 0, got r={self.r}")
        if not math.isfinite(self.momentum):
            raise ValueError("momentum must be finite")


@dataclass(frozen=True)
class BesselCertificate:
    is_positive: bool
    min_phi: float
    max_ode_residual: float
    max_closed_form_error: float
    # r -> (phi, m): dense interpolant of the certifying solve
    solution: Callable = field(repr=False, compare=False)
    # r -> normalized ODE residual of the certified closed form at each r
    residual: Callable = field(repr=False, compare=False)


@dataclass(frozen=True)
class ODESolution:
    r: np.ndarray
    phi: np.ndarray
    momentum: np.ndarray
    phi_prime: np.ndarray
    # r -> (phi, m) anywhere on the integration range
    dense: Callable = field(repr=False, compare=False)

    def profile(self) -> Profile:
        """Hermite interpolant of the sampled solution."""
        order = np.argsort(self.r)
        spline = CubicHermiteSpline(self.r[order], self.phi[order],
                                    self.phi_prime[order])
        der = spline.derivative()
        lo, hi = float(self.r[order][0]), float(self.r[order][-1])
        return Profile(spline, der, (lo, hi), compactly_supported=False)


def momentum_from_profile(pair_V, mu: float, p: float, phi: Profile, r: float) -> float:
    """Flux V r^mu |phi'|^(p-2) phi' of an analytic profile at a point."""
    d = float(phi.derivative(np.array([r]))[0])
    return float(pair_V(np.array([r]))[0]) * r ** mu * abs(d) ** (p - 2.0) * d


def _flux_system(V, W, lam: float, mu: float, p: float):
    def rhs(r, y):
        phi, m = y
        v = float(V(np.array([r]))[0])
        if v <= 0.0:
            raise SingularCoefficientError(f"V({r}) = {v} <= 0 on the path")
        w = m / (v * r ** mu)
        dphi = math.copysign(abs(w) ** (1.0 / (p - 1.0)), w)
        dm = -lam * float(W(np.array([r]))[0]) * r ** mu * abs(phi) ** (p - 2.0) * phi
        return (dphi, dm)

    return rhs


def integrate_bessel_ode(pair: RadialWeightPair, exponents: Exponents,
                         init: RadialODEState, r_end: float,
                         rtol: float = 1e-10, atol: float = 1e-12,
                         dense_n: int = 600) -> ODESolution:
    """Integrate the flux system from init.r to r_end (either direction)."""
    p = exponents.p
    mu = exponents.measure_exponent
    lo = min(init.r, r_end)
    hi = max(init.r, r_end)
    if not (pair.interval[0] <= lo and hi <= pair.interval[1]):
        raise ValueError(
            f"integration range [{lo}, {hi}] leaves the pair interval {pair.interval}")
    probe = np.geomspace(lo, hi, 64)
    if np.min(pair.V(probe)) <= 0.0:
        raise SingularCoefficientError("V vanishes on the integration interval")

    def blowup(r, y):
        return abs(y[0]) - _BLOWUP

    blowup.terminal = True
    sol = solve_ivp(_flux_system(pair.V, pair.W, pair.lam, mu, p),
                    (init.r, r_end), (init.phi, init.momentum),
                    method="DOP853", rtol=rtol, atol=atol,
                    dense_output=True, events=blowup)
    if sol.status == 1:
        raise DivergenceError(
            f"|phi| exceeded {_BLOWUP:.0e} at r = {sol.t_events[0][0]:.6g}")
    if not sol.success:
        raise RuntimeError(f"ODE integration failed: {sol.message}")
    r = np.linspace(init.r, r_end, dense_n)
    phi, m = sol.sol(r)
    v = pair.V(r)
    w = m / (v * r ** mu)
    phi_prime = np.sign(w) * np.abs(w) ** (1.0 / (p - 1.0))
    return ODESolution(r=r, phi=phi, momentum=m, phi_prime=phi_prime,
                       dense=sol.sol)


def closed_form_maximizer(scenario: Scenario) -> Profile:
    """The scenario's explicit maximizer with analytic derivative."""
    if isinstance(scenario.maximizer, Profile):
        return scenario.maximizer
    raise UnsupportedScenarioError(
        f"scenario {scenario.name!r} has no closed-form maximizer "
        f"(tag: {scenario.maximizer})")


def ode_residuals(V, W, lam: float, mu: float, p: float, phi: Profile,
                  grid: np.ndarray, fd_rel_step: float = 1e-4) -> np.ndarray:
    """Normalized ODE residual of an analytic profile at each grid point.

    The outer derivative of the flux is taken by 4th-order central finite
    differences with a logarithmically scaled step; the residual at each grid
    point is normalized by the magnitude of the zeroth-order term.
    """
    grid = np.asarray(grid, dtype=float)

    def flux(r):
        d = phi.derivative(r)
        return V(r) * r ** mu * np.abs(d) ** (p - 2.0) * d

    h = fd_rel_step * grid
    flux_d = (flux(grid - 2 * h) - 8 * flux(grid - h)
              + 8 * flux(grid + h) - flux(grid + 2 * h)) / (12 * h)
    zero_order = lam * W(grid) * grid ** mu * np.abs(phi.value(grid)) ** (p - 2.0) \
        * phi.value(grid)
    resid = flux_d + zero_order
    scale = 0.5 * (np.abs(flux_d) + np.abs(zero_order)) + 1e-300
    return np.abs(resid) / scale


def improved_weight_auxiliary_pair(Q: float, p: float):
    """Auxiliary pair behind the improved-weight counterexample:
    V = r^-(Q-p), W = r^-(Q-p) (1-r)/r, lam = p-1, solved by phi = exp(-r)."""
    def V(r):
        return np.asarray(r, dtype=float) ** (-(Q - p))

    def W(r):
        r = np.asarray(r, dtype=float)
        return r ** (-(Q - p)) * (1.0 - r) / r

    pair = RadialWeightPair(V, W, p - 1.0, (0.0, math.inf), W_nonnegative=False)
    phi = Profile(lambda r: np.exp(-np.asarray(r, dtype=float)),
                  lambda r: -np.exp(-np.asarray(r, dtype=float)),
                  (0.0, math.inf), compactly_supported=False)
    return pair, phi


def verify_bessel_pair(scenario: Scenario, interval: tuple[float, float],
                       rtol: float = 1e-10, grid_n: int = 1000,
                       eigenfunction: Profile | None = None) -> BesselCertificate:
    """Integrate from closed-form-seeded data across the interval, certify
    positivity of phi, and report the closed form's max ODE residual.

    For the improved_weight scenario the certificate concerns the auxiliary
    pair (exp(-r) against the (1-r)/r weight); for the annulus scenario pass
    the computed eigenfunction to certify it instead of the p=2 closed form.
    """
    r0, r1 = interval
    lo, hi = scenario.pair.interval
    if not (lo < r0 < r1 < hi if math.isfinite(hi) else lo < r0 < r1):
        raise ValueError(f"interval {interval} is not strictly inside {scenario.pair.interval}")
    exps = scenario.exponents
    mu = exps.measure_exponent
    if scenario.name == "improved_weight":
        pair, phi = improved_weight_auxiliary_pair(exps.Q, exps.p)
    else:
        pair = scenario.pair
        phi = eigenfunction if eigenfunction is not None else closed_form_maximizer(scenario)

    def residual(r):
        return ode_residuals(pair.V, pair.W, pair.lam, mu, exps.p, phi, r)

    max_resid = float(np.max(residual(np.geomspace(r0, r1, grid_n))))

    init = RadialODEState(r0, float(phi.value(np.array([r0]))[0]),
                          momentum_from_profile(pair.V, mu, exps.p, phi, r0))
    sol = integrate_bessel_ode(pair, exps, init, r1, rtol=rtol)
    ref = phi.value(sol.r)
    scale = np.max(np.abs(ref))
    closed_err = float(np.max(np.abs(sol.phi - ref) / (np.abs(ref) + 1e-2 * scale)))

    # positivity margin: ten times the integrator's local error scale
    margin = 10.0 * (rtol * scale + 1e-12)
    min_phi = float(np.min(sol.phi))
    return BesselCertificate(
        is_positive=bool(min_phi > margin),
        min_phi=min_phi,
        max_ode_residual=max_resid,
        max_closed_form_error=closed_err,
        solution=sol.dense,
        residual=residual,
    )
