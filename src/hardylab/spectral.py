"""Annulus eigenvalues of the radial p-Laplacian by shooting.

The problem (r^(Q-1-p(theta-1)) |phi'|^(p-2) phi')' + lam r^(Q-1-p theta)
|phi|^(p-2) phi = 0, phi(a) = phi(b) = 0, has simple eigenvalues
lam_1 < lam_2 < ... above c = |kappa/p|^p, kappa = Q - p theta, and the n-th
eigenfunction has n-1 interior zeros. In t = ln r it reads (Phi_p(phi_t))' +
kappa Phi_p(phi_t) + lam Phi_p(phi) = 0, autonomous and invariant under
phi -> C phi for every real C, so a solution through a zero continues past
its next zero as a negative multiple of itself shifted by a half-period
T(lam). Its zeros sit at a e^(k T), and lam_n solves

    n T(lam) = ln(b/a),

with T strictly decreasing and T = pi_p / u for p = 2 and for kappa = 0,
u = (lam - c)^(1/p), pi_p = 2 pi (p-1)^(1/p)/(p sin(pi/p)), pi_2 = pi
(Elbert 1979; Dosly and Rehak, Half-Linear Differential Equations, 2005).
A shot integrates the flux system (`besselpair.solve_flux`) from
(phi, m)(a) = (0, 1).
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


def _first_zero(r, y):
    return y[0]


_first_zero.terminal = True
_first_zero.direction = -1      # phi > 0 just after a: skips the zero at a


def _integrate(problem: AnnulusProblem, lam: float, r_end: float, events,
               dense: bool):
    flux_exp, weight_exp = problem.flux_exponents
    return solve_flux(lambda r: (r ** flux_exp, lam * r ** weight_exp),
                      problem.p, (problem.a, r_end), (0.0, 1.0),
                      _RTOL, _ATOL, events=events, dense=dense)


def _interior_zeros(sol, problem: AnnulusProblem) -> int:
    """Zeros more than 1e-8 ln(b/a) inside (a, b) in ln r, the variable the
    zeros are evenly spaced in; a margin in r would swallow real zeros near a
    on a wide annulus."""
    margin = 1e-8 * math.log(problem.b / problem.a)
    events = sol.t_events[0]
    return int(np.sum((events > problem.a * math.exp(margin))
                      & (events < problem.b * math.exp(-margin))))


def _slope(problem: AnnulusProblem, m, r):
    """phi' from the flux m = r^(flux exponent) |phi'|^(p-2) phi'."""
    w = m / np.asarray(r, dtype=float) ** problem.flux_exponents[0]
    return np.sign(w) * np.abs(w) ** (1.0 / (problem.p - 1.0))


def shoot(problem: AnnulusProblem, lam: float) -> float:
    """The half-period T(lam) = ln(r_1/a), r_1 the first zero after a of the
    shot from (phi, m)(a) = (0, 1), without dense output; inf if there is no
    zero before a (b/a)^2, that is if T > 2 ln(b/a). That end is a float
    product, inf where it overflows: a float power would raise."""
    sol = _integrate(problem, lam, problem.b * problem.b / problem.a,
                     _first_zero, dense=False)
    zeros = sol.t_events[0]
    return math.log(zeros[0] / problem.a) if zeros.size else math.inf


def _result_from(problem: AnnulusProblem, lam: float) -> ShootingResult:
    """The shot at lam with its dense output as eigenfunction, max |phi| = 1."""
    sol = _integrate(problem, lam, problem.b, lambda r, y: y[0], dense=True)
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
    """The which-th eigenvalue: the root of F(x) = ln(which T / ln(b/a)) in
    x = ln u, from u_0 = which pi_p / ln(b/a). The first step x_1 = x_0 + F_0
    is exact for p = 2 and kappa = 0; later steps are secants through the
    last two shots, bisecting when one leaves the sign bracket, and a shot
    with no zero (T > 2 ln(b/a)) steps x up by ln(2 which). The search stops
    at a step below max(tol/p, _RTOL), so tol in (0, 1e-6] bounds lam's
    relative error down to what the shots resolve.
    Search shots go through `shoot`; the shot at the root alone keeps dense
    output, for the eigenfunction, and must have which-1 interior zeros."""
    if not 0 < tol <= 1e-6:     # looser, the root can land past lam_which
        raise ParameterDomainError(f"tol must be in (0, 1e-6], got {tol}")
    if which < 1:
        raise ParameterDomainError(f"which must be >= 1, got {which}")
    p, c = problem.p, problem.lemma_lower_bound
    span = math.log(problem.b / problem.a)
    width = max(tol / p, _RTOL)
    x = math.log(which * 2.0 * math.pi * (p - 1.0) ** (1.0 / p)
                 / (p * math.sin(math.pi / p) * span))
    lo, hi, last = -math.inf, math.inf, None    # F(lo) > 0 > F(hi)
    for _ in range(_MAX_SHOTS):
        f = math.log(which * shoot(problem, c + math.exp(p * x)) / span)
        lo, hi = (x, hi) if f > 0 else (lo, x)
        if f == math.inf:       # which T / ln(b/a) > 2 which
            step = math.log(2.0 * which)
        else:
            slope = -1.0 if last is None else (f - last[1]) / (x - last[0])
            step = -f / slope if slope < 0 else f
            last = (x, f)
        if abs(step) <= width:
            x += step
            break
        x = x + step if lo < x + step < hi else 0.5 * (lo + hi)
    else:
        raise SearchFailureError(f"half-period search for eigenvalue {which} "
                                 f"did not converge in {_MAX_SHOTS} shots")
    result = _result_from(problem, c + math.exp(p * x))
    if result.zero_count != which - 1:
        raise SearchFailureError(
            f"converged shot has {result.zero_count} interior zeros, "
            f"expected {which - 1} for eigenvalue {which}")
    return result


def check_lambda1_lower_bound(problem: AnnulusProblem,
                              result: ShootingResult) -> bool:
    """True iff the computed lam_1 clears the lemma bound |(Q-p theta)/p|^p."""
    return result.lam > problem.lemma_lower_bound + 1e-9
