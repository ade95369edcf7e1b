"""Certification of Bessel pairs along the radial ODE

    (V(r) r^(Q-1) |phi'|^(p-2) phi')' + lam W(r) r^(Q-1) |phi|^(p-2) phi = 0.

The state is (phi, m) with the p-Laplacian flux m = V r^(Q-1) |phi'|^(p-2) phi'
as momentum, which stays smooth across phi' = 0; phi' is recovered by the
inversion |m|^(1/(p-1)) with the sign carried separately. Integration never
starts at the singular origin: initial data is seeded at an interior point
from the closed form. `solve_flux` also integrates the annulus eigenfunction
of `spectral`, in t = ln r with constant coefficients and a constant drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import DOP853, DenseOutput, solve_ivp

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
# RHS budget of one solve; the largest legitimate solve seen needs ~4e4
_MAX_NFEV = 1_000_000


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


def _nonzero(row):
    return tuple((j, float(a)) for j, a in enumerate(row) if a)


def _combine(K, row):
    """sum_j a_j K[j] over a tableau row's nonzero (j, a_j), per component."""
    d0 = d1 = 0.0
    for j, a in row:
        k0, k1 = K[j]
        d0 += k0 * a
        d1 += k1 * a
    return d0, d1


class _FloatDOP853(DOP853):
    """scipy's DOP853 (Hairer, Norsett and Wanner, Solving ODEs I, II.4-II.6)
    on a 2-state system in Python floats. It inherits the tableau, the
    tolerance checks and the initial step, and redoes scipy's step (the E5/E3
    error norm and its controller: safety 0.9, factors 0.2 to 10, exponent
    -1/8, the minimum step and the clamp to t_bound) and its order-7 dense
    output over the tableau's nonzero entries, calling the raw RHS, which
    returns a pair of floats, and counting nfev itself."""

    # (c, row) per stage after the first; the last one, (1, B), is f(t + h, y_new)
    _STAGES = tuple((float(c), _nonzero(a)) for a, c in zip(
        [*DOP853.A[1:], DOP853.B], [*DOP853.C[1:], 1.0]))
    _EXTRA = tuple((float(c), _nonzero(a))
                   for a, c in zip(DOP853.A_EXTRA, DOP853.C_EXTRA))
    _E5, _E3 = _nonzero(DOP853.E5), _nonzero(DOP853.E3)
    _D = tuple(_nonzero(row) for row in DOP853.D)
    _SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0

    def __init__(self, fun, *args, **kwargs):
        super().__init__(fun, *args, **kwargs)
        self._rhs = fun
        self._tol = float(self.rtol), float(self.atol)
        self.f = tuple(self.f.tolist())
        self.h_abs = float(self.h_abs)      # numpy scalars would slow each step

    def _add_stages(self, K, t, y, h, stages):
        """Append the RHS at each stage to K; return the last stage's state."""
        for c, row in stages:
            d0, d1 = _combine(K, row)
            z = (y[0] + d0 * h, y[1] + d1 * h)
            K.append(self._rhs(t + c * h, z))
        self.nfev += len(stages)
        return z

    def _step_impl(self):
        t, y, direction = self.t, self.y.tolist(), float(self.direction)
        rtol, atol = self._tol
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = min(max(self.h_abs, min_step), self.max_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return False, self.TOO_SMALL_STEP
            if self.nfev > _MAX_NFEV:
                return False, f"more than {_MAX_NFEV} RHS evaluations"
            t_new = t + h_abs * direction
            if direction * (t_new - self.t_bound) > 0:
                t_new = self.t_bound
            h = t_new - t
            h_abs = abs(h)
            K = [self.f]
            y_new = self._add_stages(K, t, y, h, self._STAGES)
            err5 = err3 = 0.0
            for e5, e3, u, v in zip(_combine(K, self._E5), _combine(K, self._E3),
                                    y, y_new):
                scale = atol + max(abs(u), abs(v)) * rtol
                e5, e3 = e5 / scale, e3 / scale
                err5 += e5 * e5
                err3 += e3 * e3
            error_norm = 0.0 if err5 == 0 else \
                h_abs * err5 / math.sqrt((err5 + 0.01 * err3) * 2)
            if error_norm < 1:
                factor = self._MAX_FACTOR if error_norm == 0 else min(
                    self._MAX_FACTOR, self._SAFETY * error_norm ** self.error_exponent)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(self._MIN_FACTOR,
                         self._SAFETY * error_norm ** self.error_exponent)
            rejected = True
        self.h_previous, self.y_old, self._K = h, self.y, K
        self.t, self.y, self.h_abs, self.f = t_new, np.array(y_new), h_abs, K[-1]
        return True, None

    def _dense_output_impl(self):
        K, h, y_old = self._K[:], self.h_previous, self.y_old.tolist()
        self._add_stages(K, self.t_old, y_old, h, self._EXTRA)
        dy = [v - u for u, v in zip(y_old, self.y.tolist())]
        F = [dy, [h * f - d for d, f in zip(dy, K[0])],
             [2 * d - h * (f1 + f0) for d, f0, f1 in zip(dy, K[0], self.f)]]
        F += [[h * x for x in _combine(K, row)] for row in self._D]
        return _FloatDense(self.t_old, self.t, y_old, F)


class _FloatDense(DenseOutput):
    """A step's order-7 interpolant, summed in scipy's Horner order."""

    def __init__(self, t_old, t, y_old, F):
        super().__init__(t_old, t)
        self.h, self.y_old, self.F = t - t_old, y_old, F

    def _call_impl(self, t):
        x = (t - self.t_old) / self.h
        x = float(x) if t.ndim == 0 else x
        xs, y0, y1 = (x, 1.0 - x), 0.0, 0.0
        for i, (f0, f1) in enumerate(reversed(self.F)):
            y0 = (y0 + f0) * xs[i % 2]
            y1 = (y1 + f1) * xs[i % 2]
        return np.array((y0 + self.y_old[0], y1 + self.y_old[1]))


def solve_flux(coefficients: Callable, p: float, r_span, y0,
               rtol: float, atol: float, events, drift: float = 0.0):
    """Integrate (A |phi'|^(p-2) phi')' + B |phi|^(p-2) phi = 0 over r_span
    for (phi, m), m = A |phi'|^(p-2) phi', by DOP853 with dense output; r ->
    (A(r), B(r)) are the coefficients, and a drift d adds d phi to phi' and
    -d m to m'. A float overflow or division by zero in the RHS is an ODEFailure."""
    inv, q = 1.0 / (p - 1.0), p - 2.0

    def rhs(r, y):
        phi, m = y
        A, B = coefficients(r)
        w = m / A
        return (math.copysign(abs(w) ** inv, w) + drift * phi,
                -drift * m - B * abs(phi) ** q * phi)

    try:
        sol = solve_ivp(rhs, r_span, y0, method=_FloatDOP853, rtol=rtol,
                        atol=atol, dense_output=True, events=events)
    except (OverflowError, ZeroDivisionError) as exc:
        fault = "overflow" if isinstance(exc, OverflowError) else "division by zero"
        raise ODEFailure(f"ODE integration failed: float {fault} in the "
                         "right-hand side") from exc
    if not sol.success:
        raise ODEFailure(f"ODE integration failed: {sol.message}")
    return sol


def integrate_bessel_ode(pair: RadialWeightPair, exponents: Exponents,
                         r0: float, y0: tuple[float, float], r_end: float,
                         zero_order: Callable | None = None,
                         blowup: float = _BLOWUP) -> Callable:
    """Integrate the flux system from (phi, m)(r0) = y0 to r_end (either
    direction) and return its dense output r -> (phi, m); a zeroth-order
    numerator weight z makes the coefficient (lam W - z) r^mu. The solve
    stops with DivergenceError once |phi| exceeds blowup."""
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

    def diverged(r, y):
        return abs(y[0]) - blowup

    diverged.terminal = True
    sol = solve_flux(coefficients, p, (r0, r_end), y0, _RTOL, _ATOL,
                     events=diverged)
    if sol.status == 1:
        raise DivergenceError(
            f"|phi| exceeded {blowup:.3g} at r = {sol.t_events[0][0]:.6g}")
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
    value = phi.value(grid)
    zero_term = coeff * grid ** mu * np.abs(value) ** (p - 2.0) * value
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
    r = np.linspace(r0, r1, _DENSE_N)
    ref = phi.value(r)
    abs_ref = np.abs(ref)
    scale = np.max(abs_ref)
    # the closed form has no finite-r blow-up to guard against: the solve
    # stops only far past the scale of the solution it should track
    dense = integrate_bessel_ode(pair, exps, r0, y0, r1, zero_order=z,
                                 blowup=_BLOWUP * scale)
    phi_r = dense(r)[0]
    closed_err = float(np.max(np.abs(phi_r - ref) / (abs_ref + 1e-2 * scale)))

    # positivity margin: ten times the integrator's local error scale at each r
    margin = 10.0 * (_RTOL * abs_ref + 1e-12)
    min_phi = float(np.min(phi_r))
    return BesselCertificate(
        is_positive=bool(np.all(phi_r > margin)),
        min_phi=min_phi,
        max_ode_residual=max_resid,
        max_closed_form_error=closed_err,
        solution=dense,
        residual=residual,
    )
