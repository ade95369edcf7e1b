"""Certification of Bessel pairs along the radial ODE

    (V(r) r^(Q-1) |phi'|^(p-2) phi')' + lam W(r) r^(Q-1) |phi|^(p-2) phi = 0.

The state is (phi, m) with the p-Laplacian flux m = V r^(Q-1) |phi'|^(p-2) phi'
as momentum, which stays smooth across phi' = 0; phi' is recovered by the
inversion |m|^(1/(p-1)) with the sign carried separately. Integration never
starts at the singular origin: initial data is seeded at an interior point
from the closed form. `solve_flux` also integrates the annulus shooting of
`spectral`, the same system with power coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from .profiles import Profile
from .scenarios import (CheckFailure, Exponents, RadialWeightPair, Scenario,
                        closed_form_maximizer)

__all__ = [
    "BesselCertificate",
    "ODEFailure",
    "SingularCoefficientError",
    "DivergenceError",
    "solve_flux",
    "integrate_bessel_ode",
    "verify_bessel_pair",
    "ode_residuals",
    "improved_weight_auxiliary_pair",
    "momentum_from_profile",
]

_BLOWUP = 1e12
_RTOL, _ATOL = 1e-10, 1e-12     # DOP853 tolerances of every certificate solve
_DENSE_N = 600                  # points comparing the solve with the closed form
_GRID_N = 1000                  # points of the closed form's residual scan
_FD_REL_STEP = 1e-4             # relative step of the residual's flux derivative


class ODEFailure(CheckFailure):
    """The flux ODE could not be integrated across the requested range."""


class SingularCoefficientError(ODEFailure):
    """V vanishes (or is negative) on the integration path."""


class DivergenceError(ODEFailure):
    """|phi| exceeded the blow-up threshold during integration."""


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


def momentum_from_profile(V, mu: float, p: float, phi: Profile, r):
    """Flux V r^mu |phi'|^(p-2) phi' of an analytic profile, elementwise in r."""
    d = phi.derivative(r)
    return V(r) * r ** mu * np.abs(d) ** (p - 2.0) * d


def solve_flux(coefficients: Callable, p: float, r_span, y0,
               rtol: float, atol: float, events, dense: bool = True):
    """Integrate (A |phi'|^(p-2) phi')' + B |phi|^(p-2) phi = 0 over r_span
    for the state (phi, m), m = A |phi'|^(p-2) phi', by DOP853 (with dense
    output if dense); coefficients maps a scalar r to (A(r), B(r))."""
    def rhs(r, y):
        phi, m = y
        A, B = coefficients(r)
        w = m / A
        dphi = math.copysign(abs(w) ** (1.0 / (p - 1.0)), w)
        dm = -B * abs(phi) ** (p - 2.0) * phi
        return (dphi, dm)

    sol = solve_ivp(rhs, r_span, y0, method="DOP853", rtol=rtol, atol=atol,
                    dense_output=dense, events=events)
    if not sol.success:
        raise ODEFailure(f"ODE integration failed: {sol.message}")
    return sol


def integrate_bessel_ode(pair: RadialWeightPair, exponents: Exponents,
                         r0: float, y0: tuple[float, float], r_end: float,
                         zero_order: Callable | None = None) -> Callable:
    """Integrate the flux system from (phi, m)(r0) = y0 to r_end (either
    direction) and return its dense output r -> (phi, m); a zeroth-order
    numerator weight z makes the coefficient (lam W - z) r^mu."""
    p = exponents.p
    mu = exponents.measure_exponent
    lo = min(r0, r_end)
    hi = max(r0, r_end)
    if not (pair.interval[0] <= lo and hi <= pair.interval[1]):
        raise ValueError(
            f"integration range [{lo}, {hi}] leaves the pair interval {pair.interval}")
    probe = np.geomspace(lo, hi, 64)
    if np.min(pair.V(probe)) <= 0.0:
        raise SingularCoefficientError("V vanishes on the integration interval")

    V, W, lam = pair.V, pair.W, pair.lam

    # weights see 1-element arrays: numpy's scalar and array pow/log can differ
    def coefficients(r):
        x = np.array([r])
        v = float(V(x)[0])
        if v <= 0.0:
            raise SingularCoefficientError(f"V({r}) = {v} <= 0 on the path")
        c = lam * float(W(x)[0])
        if zero_order is not None:
            c -= float(zero_order(x)[0])
        rm = r ** mu
        return v * rm, c * rm

    def blowup(r, y):
        return abs(y[0]) - _BLOWUP

    blowup.terminal = True
    sol = solve_flux(coefficients, p, (r0, r_end), y0, _RTOL, _ATOL,
                     events=blowup)
    if sol.status == 1:
        raise DivergenceError(
            f"|phi| exceeded {_BLOWUP:.0e} at r = {sol.t_events[0][0]:.6g}")
    return sol.sol


def ode_residuals(V, W, lam: float, mu: float, p: float, phi: Profile,
                  grid: np.ndarray, zero_order: Callable | None = None) -> np.ndarray:
    """Normalized ODE residual of an analytic profile at each grid point.

    The outer derivative of the flux is taken by 4th-order central finite
    differences with a logarithmically scaled step; the residual at each grid
    point is normalized by the mean magnitude of the two terms. A zeroth-order
    numerator weight z makes the coefficient (lam W - z) r^mu.
    """
    grid = np.asarray(grid, dtype=float)

    def flux(r):
        return momentum_from_profile(V, mu, p, phi, r)

    h = _FD_REL_STEP * grid
    flux_d = (flux(grid - 2 * h) - 8 * flux(grid - h)
              + 8 * flux(grid + h) - flux(grid + 2 * h)) / (12 * h)
    coeff = lam * W(grid)
    if zero_order is not None:
        coeff = coeff - zero_order(grid)
    zero_term = coeff * grid ** mu * np.abs(phi.value(grid)) ** (p - 2.0) \
        * phi.value(grid)
    resid = flux_d + zero_term
    # where both terms vanish (the improved_weight auxiliary pair at r = 1)
    # their mean is rounding noise and the ratio reads ~2; floor it at the
    # flux's derivative scale |m|/r shrunk by the relative step
    scale = np.maximum(0.5 * (np.abs(flux_d) + np.abs(zero_term)) + 1e-300,
                       _FD_REL_STEP * np.abs(flux(grid)) / grid)
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
                  (0.0, math.inf))
    return pair, phi


def verify_bessel_pair(scenario: Scenario,
                       interval: tuple[float, float]) -> BesselCertificate:
    """Integrate from closed-form-seeded data across the interval, certify
    positivity of phi, and report the closed form's max ODE residual.

    For the improved_weight scenario the certificate concerns the auxiliary
    pair (exp(-r) against the (1-r)/r weight).
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
        phi = closed_form_maximizer(scenario)
    z = scenario.numerator_zero_order

    def residual(r):
        return ode_residuals(pair.V, pair.W, pair.lam, mu, exps.p, phi, r,
                             zero_order=z)

    max_resid = float(np.max(residual(np.geomspace(r0, r1, _GRID_N))))

    at_r0 = np.array([r0])
    y0 = (float(phi.value(at_r0)[0]),
          float(momentum_from_profile(pair.V, mu, exps.p, phi, at_r0)[0]))
    dense = integrate_bessel_ode(pair, exps, r0, y0, r1, zero_order=z)
    r = np.linspace(r0, r1, _DENSE_N)
    phi_r = dense(r)[0]
    ref = phi.value(r)
    scale = np.max(np.abs(ref))
    closed_err = float(np.max(np.abs(phi_r - ref) / (np.abs(ref) + 1e-2 * scale)))

    # positivity margin: ten times the integrator's local error scale
    margin = 10.0 * (_RTOL * scale + 1e-12)
    min_phi = float(np.min(phi_r))
    return BesselCertificate(
        is_positive=bool(min_phi > margin),
        min_phi=min_phi,
        max_ode_residual=max_resid,
        max_closed_form_error=closed_err,
        solution=dense,
        residual=residual,
    )
