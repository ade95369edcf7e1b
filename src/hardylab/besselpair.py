"""Bessel pairs certified by the integrated flux identity.

A Bessel pair (V, W) with constant lam has a positive solution phi of

    (V(r) r^(Q-1) |phi'|^(p-2) phi')' + lam W(r) r^(Q-1) |phi|^(p-2) phi = 0.

`certify_flux` checks a profile phi, a closed form or a built solution, on
each of _INTERVALS geometric intervals [r_i, r_(i+1)] of [r0, r1] against
the equation integrated there,

    m(r_(i+1)) - m(r_i) + int (lam W - z) r^(Q-1) Phi_p(phi) dr = 0,
    phi(r_(i+1)) - phi(r_i) - int phi' dr = 0,

with the flux m = V r^(Q-1) Phi_p(phi'), Phi_p(x) = |x|^(p-2) x and z the
zero-order numerator weight; the second identity ties phi' to phi. By
uniqueness of the initial-value problem, phi is then the solution from its
own data at r0, so no ODE is integrated. `verify_bessel_pair` certifies a
scenario's closed form.
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
    "certify_flux",
    "verify_bessel_pair",
    "improved_weight_auxiliary_pair",
    "momentum_from_profile",
]

_INTERVALS = 64                 # geometric intervals of each certificate
_PROBES = 16                    # points per interval where phi is probed
_FLUX_RTOL = 1e-13              # relative target of each identity's integral
_U = 2.0 ** -53                 # unit roundoff
# each identity must hold within this many error budgets on every interval
_FLUX_K = 10.0


class ODEFailure(CheckFailure):
    """The coefficient probe failed: V r^mu or W r^mu is not finite on the
    certificate's grid, or V r^mu reads <= 0 on the path of its integrals."""


@dataclass(frozen=True)
class BesselCertificate:
    """phi on [r0, r1]: its smallest value on the probe grid, and for the
    flux identity and the phi' identity the largest relative residual
    (|residual| over the summed magnitudes of its terms) and the largest
    residual over its error budget, each over every interval."""
    is_positive: bool
    min_phi: float
    max_ode_residual: float             # the flux identity
    max_closed_form_error: float        # the phi' identity
    max_flux_over_budget: float
    max_phi_over_budget: float
    # r -> (phi, m)
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


def _first_nonpositive(a: Callable, probe: np.ndarray,
                       values: np.ndarray) -> float | None:
    """The first r along the probe (the certificate's own grid) where a(r)
    <= 0, read from values = a(probe) and bisected down to adjacent floats;
    None when a > 0 (or NaN) at every probe point, or when a > 0
    underflows: no probe reads below 0, and a reads 0.0 just past a
    subnormal value."""
    bad = (values <= 0.0).nonzero()[0]
    if not bad.size:
        return None
    i = int(bad[0])
    if i == 0:
        return float(probe[0])
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
    """`certify_flux` of the scenario's own pair and closed form (for
    improved_weight, the auxiliary pair's exp(-r)) on [r0, r1] strictly
    inside the pair's interval."""
    r0, r1 = interval
    lo, hi = scenario.pair.interval
    if not (lo < r0 < r1 < hi if math.isfinite(hi) else lo < r0 < r1):
        raise ValueError(f"interval {interval} is not strictly inside {scenario.pair.interval}")
    p = scenario.exponents.p
    if scenario.name == "improved_weight":
        pair, phi = improved_weight_auxiliary_pair(scenario.exponents.Q, p)
    else:
        pair, phi = scenario.pair, closed_form_maximizer(scenario)
    return certify_flux(pair, p, scenario.exponents.measure_exponent,
                        scenario.numerator_zero_order, phi, interval)


def certify_flux(pair: RadialWeightPair, p: float, mu: float,
                 z: Callable | None, phi: Profile,
                 interval: tuple[float, float]) -> BesselCertificate:
    """Certify phi on [r0, r1] against the pair's equation at its lam, with
    measure r^mu and zero-order weight z (or None), by the flux and phi'
    identities on _INTERVALS geometric intervals, whose integrals are the
    owners of one `integrate_batch` call at relative target _FLUX_RTOL. An
    interval's budget is its integral's error bound (floored at _FLUX_RTOL
    times the integral) plus 4u times the summed magnitudes of its end
    values; min_phi is phi's least value at _PROBES points per interval. A
    failed coefficient probe (`ODEFailure`) or integral is a CheckFailure."""
    r0, r1 = interval
    # np.geomspace(r0, r1, m + 1) bit for bit; an r1 of inf is too short below
    m = _INTERVALS * _PROBES
    with np.errstate(invalid="ignore"):
        l0, l1 = np.log10([r0, r1])
        grid = 10.0 ** (np.arange(m + 1.0) * ((l1 - l0) / m) + l0)
    grid[0], grid[-1] = r0, r1
    edges = grid[::_PROBES]
    if not np.all(edges[1:] > edges[:-1]):
        raise ValueError(f"interval {interval} is too short to split into "
                         f"{_INTERVALS} geometric intervals")
    # V r^mu may underflow and r^mu overflow; a non-finite one fails here
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        rm = grid ** mu
        flux_grid = rm * pair.V(grid)
        finite = np.isfinite(flux_grid) & np.isfinite(rm * pair.W(grid))
        phi_grid = phi.value(grid)
    if np.count_nonzero(finite) < finite.size:
        raise ODEFailure(
            "coefficient probe failed: V r^mu and W r^mu are not finite "
            f"from r = {grid[~finite][0]:.6g}")

    def flux_weight(r):
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            return pair.V(r) * r ** mu

    r = _first_nonpositive(flux_weight, grid, flux_grid)
    if r is not None:
        a = float(flux_weight(np.array([r]))[0])
        raise ODEFailure(
            f"V r^mu reads {a!r} from r = {r:.6g} on the integration path"
            + (" (V vanishes there)" if a == 0.0 else ""))

    def integrand(r, owner):
        """Owners below _INTERVALS: (lam W - z) r^mu Phi_p(phi); then phi'."""
        out = np.empty(r.shape)
        flux = owner < _INTERVALS
        x = r[flux]
        c = pair.lam * pair.W(x) - (0.0 if z is None else z(x))
        v = phi.value(x)
        out[flux] = c * x ** mu * np.abs(v) ** (p - 2.0) * v
        out[~flux] = phi.derivative(r[~flux])
        return out

    est = integrate_batch(integrand, np.concatenate([edges[:-1], edges[:-1]]),
                          np.concatenate([edges[1:], edges[1:]]), tol=0.0,
                          rel_tol=_FLUX_RTOL)
    integral = est.value.reshape(2, _INTERVALS)
    bound = est.error_estimate.reshape(2, _INTERVALS)
    with np.errstate(over="ignore", invalid="ignore"):
        ends = np.array([momentum_from_profile(pair.V, mu, p, phi, edges),
                         phi_grid[::_PROBES]])
    # m(r_(i+1)) - m(r_i) + I_flux and phi(r_(i+1)) - phi(r_i) - I_phi
    resid = np.abs(ends[:, 1:] - ends[:, :-1] + [[1.0], [-1.0]] * integral)
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

    min_phi = float(phi_grid.min())
    ode, closed = relative.max(axis=1).tolist()
    flux_over, phi_over = over.max(axis=1).tolist()
    return BesselCertificate(
        is_positive=min_phi > 0.0,
        min_phi=min_phi,
        max_ode_residual=ode,
        max_closed_form_error=closed,
        max_flux_over_budget=flux_over,
        max_phi_over_budget=phi_over,
        solution=lambda r: (phi.value(r),
                            momentum_from_profile(pair.V, mu, p, phi, r)),
        residual=residual,
    )
