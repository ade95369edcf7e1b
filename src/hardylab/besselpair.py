"""Bessel pairs certified by the integrated flux identity.

A Bessel pair (V, W) with constant lam has a positive solution phi of

    (V(r) r^(Q-1) |phi'|^(p-2) phi')' + lam W(r) r^(Q-1) |phi|^(p-2) phi = 0.

`verify_bessel_pair` checks the catalog's closed form phi (for
improved_weight, the auxiliary exp(-r) pair) on each of _INTERVALS geometric
intervals [r_i, r_(i+1)] of [r0, r1] against the ODE integrated there,

    m(r_(i+1)) - m(r_i) + int (lam W - z) r^(Q-1) Phi_p(phi) dr = 0,
    phi(r_(i+1)) - phi(r_i) - int phi' dr = 0,

with the flux m = V r^(Q-1) Phi_p(phi'), Phi_p(x) = |x|^(p-2) x and z the
zero-order numerator weight; the second identity ties phi' to phi. By
uniqueness of the initial-value problem, phi is then the solution from its
own data at r0, so no ODE is integrated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .profiles import Profile
from .quadrature import integrate_batch
from .scenarios import (CheckFailure, RadialWeightPair, Scenario,
                        closed_form_maximizer)

__all__ = [
    "BesselCertificate",
    "ODEFailure",
    "verify_bessel_pair",
    "improved_weight_auxiliary_pair",
    "momentum_from_profile",
]

_INTERVALS = 64                 # geometric intervals of each certificate
_PROBES = 16                    # points per interval where phi > 0 is checked
_FLUX_RTOL = 1e-13              # relative target of each identity's integral
_U = 2.0 ** -53                 # unit roundoff
# each identity must hold within this many error budgets on every interval
_FLUX_K = 10.0


class ODEFailure(CheckFailure):
    """The coefficient probe failed: the certificate's coefficients V r^mu
    and W r^mu, probed on its grid of [r0, r1], are not all finite floats,
    or V r^mu reads <= 0 somewhere on the path of its integrals."""


@dataclass(frozen=True)
class BesselCertificate:
    """The closed form on [r0, r1]: its smallest value on the probe grid,
    and for the flux identity and the phi' identity the largest relative
    residual (|residual| over the summed magnitudes of its terms) and the
    largest residual over its error budget, each over every interval."""
    is_positive: bool
    min_phi: float
    max_ode_residual: float             # the flux identity
    max_closed_form_error: float        # the phi' identity
    max_flux_over_budget: float
    max_phi_over_budget: float
    # r -> (phi, m) of the closed form
    solution: Callable = field(repr=False, compare=False)
    # r -> relative flux residual of the interval holding each r
    residual: Callable = field(repr=False, compare=False)

    @property
    def failure(self) -> str | None:
        """None if phi > 0 at every probe and both identities hold within
        _FLUX_K error budgets on every interval."""
        if (self.is_positive and self.max_flux_over_budget <= _FLUX_K
                and self.max_phi_over_budget <= _FLUX_K):
            return None
        return (f"Bessel-pair certificate (phi > 0, and the flux and phi' "
                f"identities within {_FLUX_K:g} error budgets on every "
                f"interval): min phi {self.min_phi:.6g}, worst flux residual "
                f"{self.max_flux_over_budget:.3g} budgets, worst phi' "
                f"residual {self.max_phi_over_budget:.3g} budgets")


def momentum_from_profile(V, mu: float, p: float, phi: Profile, r):
    """Flux V r^mu |phi'|^(p-2) phi' of an analytic profile, elementwise in r."""
    d = phi.derivative(r)
    return V(r) * r ** mu * np.abs(d) ** (p - 2.0) * d


def _first_nonpositive(a: Callable, r0: float, r1: float) -> float | None:
    """The first r from r0 towards r1 where a(r) <= 0 on a 64-point
    geometric probe, refined by bisection down to adjacent floats; None
    when a > 0 (or NaN) at every probe point, or when a > 0 underflows: no
    probe reads below 0, and a reads 0.0 just past a subnormal value."""
    probe = np.geomspace(r0, r1, 64)
    values = a(probe)
    bad = np.flatnonzero(values <= 0.0)
    if not bad.size:
        return None
    i = int(bad[0])
    if i == 0:
        return r0
    good, first = float(probe[i - 1]), float(probe[i])
    while (mid := 0.5 * (good + first)) not in (good, first):
        good, first = (good, mid) if a(np.array([mid]))[0] <= 0.0 else (mid, first)
    ends = a(np.array([good, first]))
    underflow = ends[1] == 0.0 == values[bad].min() and ends[0] < np.finfo(float).tiny
    return None if underflow else first


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
    """Certify the scenario's closed form phi on [r0, r1] (for improved_weight
    the auxiliary pair's exp(-r)) by the flux identity and the phi' identity
    on each of _INTERVALS geometric intervals, whose integrals are the owners
    of one `integrate_batch` call at relative target _FLUX_RTOL. An interval's
    error budget is its integral's error bound (floored at _FLUX_RTOL times
    the integral) plus 4u times the summed magnitudes of its end values, and
    phi must be positive at _PROBES points per interval. A coefficient V r^mu
    or W r^mu that is not a finite float at a probe, a V r^mu <= 0 on the
    path (not one that underflows from positive values), or a failed
    integral ends the check in a CheckFailure."""
    r0, r1 = interval
    lo, hi = scenario.pair.interval
    if not (lo < r0 < r1 < hi if math.isfinite(hi) else lo < r0 < r1):
        raise ValueError(f"interval {interval} is not strictly inside {scenario.pair.interval}")
    p = scenario.exponents.p
    mu = scenario.exponents.measure_exponent
    if scenario.name == "improved_weight":
        pair, phi = improved_weight_auxiliary_pair(scenario.exponents.Q, p)
    else:
        pair = scenario.pair
        phi = closed_form_maximizer(scenario)
    z = scenario.numerator_zero_order

    grid = np.geomspace(r0, r1, _INTERVALS * _PROBES + 1)
    edges = grid[::_PROBES]
    if not np.all(edges[1:] > edges[:-1]):
        raise ValueError(f"interval {interval} is too short to split into "
                         f"{_INTERVALS} geometric intervals")
    # V r^mu may underflow and r^mu overflow; a non-finite one fails here
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        rm = grid ** mu
        finite = np.isfinite(rm * pair.V(grid)) & np.isfinite(rm * pair.W(grid))
        phi_grid = phi.value(grid)
    if not finite.all():
        raise ODEFailure(
            "coefficient probe failed: V r^mu and W r^mu are not finite "
            f"from r = {grid[~finite][0]:.6g}")

    def flux_weight(r):
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            return pair.V(r) * r ** mu

    r = _first_nonpositive(flux_weight, r0, r1)
    if r is not None:
        a = float(flux_weight(np.array([r]))[0])
        raise ODEFailure(
            f"V r^mu reads {a!r} from r = {r:.6g} on the integration path"
            + (" (V vanishes there)" if a == 0.0 else ""))

    def integrand(r, owner):
        """Owners below _INTERVALS: (lam W - z) r^mu Phi_p(phi); then phi'."""
        out = np.array(phi.derivative(r), dtype=float)
        flux = owner < _INTERVALS
        x = r[flux]
        c = pair.lam * pair.W(x) - (0.0 if z is None else z(x))
        v = phi.value(x)
        out[flux] = c * x ** mu * np.abs(v) ** (p - 2.0) * v
        return out

    n = 2 * _INTERVALS
    est = integrate_batch(integrand, np.tile(edges[:-1], 2),
                          np.tile(edges[1:], 2), [False] * n, [False] * n,
                          [[]] * n, tol=0.0, rel_tol=_FLUX_RTOL)
    integral = est.value.reshape(2, _INTERVALS)
    bound = est.error_estimate.reshape(2, _INTERVALS)
    with np.errstate(over="ignore", invalid="ignore"):
        ends = np.array([momentum_from_profile(pair.V, mu, p, phi, edges),
                         phi_grid[::_PROBES]])
    # m(r_(i+1)) - m(r_i) + I_flux and phi(r_(i+1)) - phi(r_i) - I_phi
    resid = np.abs(np.diff(ends) + np.array([[1.0], [-1.0]]) * integral)
    magnitude = np.abs(ends[:, :-1]) + np.abs(ends[:, 1:])
    budget = (np.maximum(bound, _FLUX_RTOL * np.abs(integral))
              + 4.0 * _U * magnitude)
    # an interval where every term is 0 certifies nothing: NaN fails it
    with np.errstate(divide="ignore", invalid="ignore"):
        relative = resid / (magnitude + np.abs(integral))
        over = resid / budget

    def residual(r):
        i = np.searchsorted(edges, r, side="right") - 1
        return relative[0, np.clip(i, 0, _INTERVALS - 1)]

    return BesselCertificate(
        is_positive=bool(np.all(phi_grid > 0.0)),
        min_phi=float(np.min(phi_grid)),
        max_ode_residual=float(np.max(relative[0])),
        max_closed_form_error=float(np.max(relative[1])),
        max_flux_over_budget=float(np.max(over[0])),
        max_phi_over_budget=float(np.max(over[1])),
        solution=lambda r: (phi.value(r),
                            momentum_from_profile(pair.V, mu, p, phi, r)),
        residual=residual,
    )
