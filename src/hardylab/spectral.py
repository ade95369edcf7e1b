"""Annulus eigenvalues of the radial p-Laplacian by shooting.

The problem (r^(Q-1-p(theta-1)) |phi'|^(p-2) phi')' + lam r^(Q-1-p theta)
|phi|^(p-2) phi = 0, phi(a) = phi(b) = 0, has simple eigenvalues
lam_1 < lam_2 < ... above c = |kappa/p|^p, kappa = Q - p theta, and the n-th
eigenfunction has n-1 interior zeros. In t = ln r it reads (Phi_p(phi_t))' +
kappa Phi_p(phi_t) + lam Phi_p(phi) = 0. A shot integrates the flux system
(`besselpair.solve_flux`) from (phi, m)(a) = (0, 1). With k interior zeros,
s = (-1)^k and u = (lam - c)^(1/p), its phase at b,

    Theta(lam) = k pi + atan2(s u phi(b), s (phi_t(b) + (kappa/p) phi(b))),

the angle taken in [0, 2 pi), is continuous, Theta - n pi has the sign of
lam - lam_n (half-linear Sturm comparison), and Theta = u ln(b/a) for p = 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .besselpair import solve_flux
from .profiles import Profile
from .scenarios import CheckFailure, ParameterDomainError, require_p

__all__ = [
    "AnnulusProblem",
    "ShootingResult",
    "SearchFailureError",
    "shoot",
    "eigenvalue",
    "check_lambda1_lower_bound",
]

_RTOL, _ATOL = 1e-11, 1e-13     # DOP853 tolerances of every shot
_GRID_N = 1200                  # points locating max |phi| of the final shot
_MAX_SHOTS = 60                 # search shots per eigenvalue
_MAX_STEP = math.log(16.0)      # largest factor on u of one expansion shot


class SearchFailureError(CheckFailure):
    """The phase search ran out of shots or ended on the wrong zero count."""


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


def _integrate(problem: AnnulusProblem, lam: float, dense: bool):
    flux_exp, weight_exp = problem.flux_exponents
    return solve_flux(lambda r: (r ** flux_exp, lam * r ** weight_exp),
                      problem.p, (problem.a, problem.b), (0.0, 1.0),
                      _RTOL, _ATOL, events=lambda r, y: y[0], dense=dense)


def _interior_zeros(sol, problem: AnnulusProblem) -> int:
    margin = 1e-8 * (problem.b - problem.a)
    events = sol.t_events[0]
    return int(np.sum((events > problem.a + margin) & (events < problem.b - margin)))


def _slope(problem: AnnulusProblem, m, r):
    """phi' from the flux m = r^(flux exponent) |phi'|^(p-2) phi'."""
    w = m / np.asarray(r, dtype=float) ** problem.flux_exponents[0]
    return np.sign(w) * np.abs(w) ** (1.0 / (problem.p - 1.0))


def shoot(problem: AnnulusProblem, lam: float) -> tuple[float, int, float]:
    """phi(b), the interior-zero count and phi'(b) of the shot at lam, from
    (phi, m)(a) = (0, 1), without dense output."""
    sol = _integrate(problem, lam, dense=False)
    phi_b, m_b = sol.y[:, -1]
    return (float(phi_b), _interior_zeros(sol, problem),
            float(_slope(problem, m_b, problem.b)))


def _result_from(problem: AnnulusProblem, lam: float) -> ShootingResult:
    """The shot at lam with its dense output as eigenfunction, max |phi| = 1."""
    sol = _integrate(problem, lam, dense=True)
    dense = sol.sol
    phi = dense(np.linspace(problem.a, problem.b, _GRID_N))[0]
    scale = np.max(np.abs(phi))

    def value(r):
        return dense(r)[0] / scale

    def derivative(r):
        return _slope(problem, dense(r)[1], r) / scale

    return ShootingResult(lam, _interior_zeros(sol, problem),
                          float(abs(phi[-1]) / scale),
                          Profile(value, derivative, (problem.a, problem.b)))


def eigenvalue(problem: AnnulusProblem, which: int = 1,
               tol: float = 1e-8) -> ShootingResult:
    """The which-th eigenvalue: a safeguarded secant solving Theta = which pi
    in u from u_0 = which pi_p / ln(b/a), pi_p = 2 pi (p-1)^(1/p)/(p sin(pi/p)),
    exact for p = 2 and kappa = 0. Geometric expansion brackets the root, and
    regula falsi with the Illinois fix (bisection if a step leaves the
    bracket) narrows it to max(tol/p, 4 eps) u, so tol bounds lam's
    relative error down to what doubles resolve.
    Search shots go through `shoot`; the shot at the root alone keeps dense
    output, for the eigenfunction, and must have which-1 interior zeros."""
    if not tol > 0:
        raise ParameterDomainError(f"tol must be positive, got {tol}")
    if which < 1:
        raise ParameterDomainError(f"which must be >= 1, got {which}")
    p, c, target = problem.p, problem.lemma_lower_bound, which * math.pi
    drift = (problem.Q - p * problem.theta) / p         # kappa / p
    width = max(tol / p, 4 * np.finfo(float).eps)

    def excess(u: float) -> float:                      # Theta - which pi
        phi_b, k, slope = shoot(problem, c + u ** p)
        s = -1.0 if k % 2 else 1.0
        angle = math.atan2(s * u * phi_b, s * (problem.b * slope + drift * phi_b))
        return k * math.pi + angle % (2.0 * math.pi) - target

    u = which * 2.0 * math.pi * (p - 1.0) ** (1.0 / p) / (
        p * math.sin(math.pi / p) * math.log(problem.b / problem.a))
    ends = {}           # side (-1 below the root, 1 above) -> [u, f, scaled f]
    kept, step = 0, 0.0     # side the last update kept; last ln u expansion
    for _ in range(_MAX_SHOTS):
        f = excess(u)
        side = 1 if f > 0 else -1
        if len(ends) == 2:
            if kept == -side:           # that end survived twice: Illinois
                ends[kept][2] *= 0.5
            kept = -side
        ends[side] = [u, f, f]
        if len(ends) == 1:      # Theta ~ u: go twice past its proportional root
            step = max(2.0 * abs(math.log(target / max(target + f, 1e-300))),
                       2.0 * step, width)
            u *= math.exp(-side * min(step, _MAX_STEP))
            continue
        (u0, f0, g0), (u1, f1, g1) = ends[-1], ends[1]
        if u1 - u0 <= width * u1 or f == 0.0:    # f = 0 is stored as f0
            u = (u0 * f1 - u1 * f0) / (f1 - f0)
            break
        u = (u0 * g1 - u1 * g0) / (g1 - g0)
        if not u0 < u < u1:
            u = 0.5 * (u0 + u1)
        # stay half the tolerance inside: a step landing next to one end
        # then closes the bracket from the other
        u = min(max(u, u0 + 0.5 * width * u1), u1 - 0.5 * width * u1)
    else:
        raise SearchFailureError(f"phase search for eigenvalue {which} did "
                                 f"not converge in {_MAX_SHOTS} shots")
    result = _result_from(problem, c + u ** p)
    if result.zero_count != which - 1:
        raise SearchFailureError(
            f"converged shot has {result.zero_count} interior zeros, "
            f"expected {which - 1} for eigenvalue {which}")
    return result


def check_lambda1_lower_bound(problem: AnnulusProblem,
                              result: ShootingResult) -> bool:
    """True iff the computed lam_1 clears the lemma bound |(Q-p theta)/p|^p."""
    return result.lam > problem.lemma_lower_bound + 1e-9
