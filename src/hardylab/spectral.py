"""Annulus eigenvalues of the radial p-Laplacian by shooting.

The boundary value problem

    (r^(Q-1-p(theta-1)) |phi'|^(p-2) phi')' + lam r^(Q-1-p theta) |phi|^(p-2) phi = 0,
    phi(a) = phi(b) = 0,

has a countable sequence of simple positive eigenvalues whose n-th
eigenfunction has exactly n-1 interior zeros. Shooting integrates the flux
system (`besselpair.solve_flux`) from (phi, m)(a) = (0, 1); the endpoint
value phi_b(lam) changes sign exactly at each eigenvalue, so a coarse
doubling scan brackets the n-th sign change and Brent's method polishes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .besselpair import solve_flux
from .profiles import Profile
from .scenarios import (CheckFailure, ParameterDomainError,
                        closed_form_lambda1_p2, require_p)

__all__ = [
    "AnnulusProblem",
    "ShootingResult",
    "SearchFailureError",
    "shoot",
    "eigenvalue",
    "check_lambda1_lower_bound",
]

_LAMBDA_MAX = 1e6
_RTOL, _ATOL = 1e-11, 1e-13     # DOP853 tolerances of every shot
_GRID_N = 1200                  # points locating max |phi| of the final shot


class SearchFailureError(CheckFailure):
    """No eigenvalue bracket found below the search cap."""


@dataclass(frozen=True)
class AnnulusProblem:
    Q: float
    p: float
    theta: float
    a: float
    b: float

    def __post_init__(self) -> None:
        if not 0 < self.a < self.b:
            raise ParameterDomainError(f"need 0 < a < b, got a={self.a}, b={self.b}")
        require_p(self.p)
        for name in ("Q", "theta", "b"):   # 0 < a < b then bounds a too
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ParameterDomainError(f"{name} must be finite, got {value}")

    @property
    def lemma_lower_bound(self) -> float:
        """Every eigenvalue exceeds |(Q - p theta)/p|^p."""
        return abs((self.Q - self.p * self.theta) / self.p) ** self.p

    @property
    def flux_exponents(self) -> tuple[float, float]:
        """Powers of r multiplying the flux and the zeroth-order term."""
        return (self.Q - 1.0 - self.p * (self.theta - 1.0),
                self.Q - 1.0 - self.p * self.theta)


@dataclass(frozen=True)
class ShootingResult:
    lam: float
    zero_count: int
    endpoint_residual: float
    eigenfunction: Profile

    def __post_init__(self) -> None:
        if not self.lam > 0:
            raise ValueError("eigenvalues are positive")
        if self.zero_count < 0:
            raise ValueError("zero_count must be nonnegative")


def _integrate(problem: AnnulusProblem, lam: float):
    flux_exp, weight_exp = problem.flux_exponents

    def crossing(r, y):
        return y[0]

    return solve_flux(lambda r: (r ** flux_exp, lam * r ** weight_exp),
                      problem.p, (problem.a, problem.b), (0.0, 1.0),
                      _RTOL, _ATOL, events=crossing)


def _interior_zeros(sol, problem: AnnulusProblem) -> int:
    margin = 1e-8 * (problem.b - problem.a)
    events = sol.t_events[0]
    return int(np.sum((events > problem.a + margin) & (events < problem.b - margin)))


def shoot(problem: AnnulusProblem, lam: float) -> tuple[float, int]:
    """Endpoint value phi(b) and interior-zero count for one trial lam,
    integrating from (phi, m)(a) = (0, 1)."""
    sol = _integrate(problem, lam)
    return float(sol.y[0, -1]), _interior_zeros(sol, problem)


def _result_from(problem: AnnulusProblem, lam: float) -> ShootingResult:
    """The shot at lam, normalized to max |phi| = 1; the eigenfunction is the
    shot's own dense output, with phi' recovered from the flux m."""
    sol = _integrate(problem, lam)
    dense, flux_exp = sol.sol, problem.flux_exponents[0]
    phi = dense(np.linspace(problem.a, problem.b, _GRID_N))[0]
    scale = np.max(np.abs(phi))

    def value(r):
        return dense(r)[0] / scale

    def derivative(r):
        w = dense(r)[1] / np.asarray(r, dtype=float) ** flux_exp
        return np.sign(w) * np.abs(w) ** (1.0 / (problem.p - 1.0)) / scale

    return ShootingResult(
        lam=lam,
        zero_count=_interior_zeros(sol, problem),
        endpoint_residual=float(abs(phi[-1]) / scale),
        eigenfunction=Profile(value, derivative, (problem.a, problem.b)),
    )


def eigenvalue(problem: AnnulusProblem, which: int = 1,
               tol: float = 1e-8) -> ShootingResult:
    """The which-th eigenvalue by interior-zero counting plus endpoint root.

    The count of interior zeros of the shot equals the number of eigenvalues
    below the trial lam, so integer bisection isolates exactly one eigenvalue
    regardless of how the endpoint sign oscillates; Brent's method on phi(b)
    then polishes inside the isolated bracket, where the sign is guaranteed
    to change once.
    """
    if not tol > 0:
        raise ParameterDomainError(f"tol must be positive, got {tol}")
    if which < 1:
        raise ParameterDomainError(f"which must be >= 1, got {which}")
    cache: dict[float, tuple[float, int]] = {}

    def probe(lam: float) -> tuple[float, int]:
        if lam not in cache:
            cache[lam] = shoot(problem, lam)
        return cache[lam]

    def S(lam: float) -> float:
        return probe(lam)[0]

    lo = max(problem.lemma_lower_bound, 1e-9)       # below lam_1 by the lemma
    seed = closed_form_lambda1_p2(problem.Q, problem.theta, problem.a, problem.b)
    hi = max(seed * max(1.0, problem.p - 1.0) * 4.0, lo * 2.0)
    while probe(hi)[1] < which:
        hi *= 2.0
        if hi > _LAMBDA_MAX:
            raise SearchFailureError(
                f"no bracket for eigenvalue {which} below {_LAMBDA_MAX:.0e}")
    # integer bisection: count(lo) <= which-1 < which <= count(hi)
    while probe(hi)[1] - probe(lo)[1] > 1 or hi - lo > 0.25 * hi:
        mid = 0.5 * (lo + hi)
        if probe(mid)[1] >= which:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-13 * hi:
            break
    # the interior count lags the true crossing by the endpoint margin; make
    # sure the endpoint value changes sign across the bracket before Brent
    for _ in range(60):
        if math.copysign(1.0, S(lo)) != math.copysign(1.0, S(hi)):
            break
        lo = max(problem.lemma_lower_bound, 1e-9, lo * (1.0 - 1e-4) - 1e-12)
    else:
        raise SearchFailureError("endpoint sign change not found in bracket")
    lam = brentq(S, lo, hi, rtol=max(tol, 4 * np.finfo(float).eps), xtol=1e-14)
    result = _result_from(problem, lam)
    expect = which - 1
    if result.zero_count != expect:
        raise SearchFailureError(
            f"converged shot has {result.zero_count} interior zeros, "
            f"expected {expect} for eigenvalue {which}")
    return result


def check_lambda1_lower_bound(problem: AnnulusProblem,
                              result: ShootingResult) -> bool:
    """True iff the computed lam_1 clears the lemma bound |(Q-p theta)/p|^p."""
    return result.lam > problem.lemma_lower_bound + 1e-9
