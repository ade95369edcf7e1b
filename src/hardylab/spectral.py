"""Annulus eigenvalues of the radial p-Laplacian from the half-period.

The problem (r^(Q-1-p(theta-1)) |phi'|^(p-2) phi')' + lam r^(Q-1-p theta)
|phi|^(p-2) phi = 0, phi(a) = phi(b) = 0, has simple eigenvalues
lam_1 < lam_2 < ... above c = |kappa/p|^p, kappa = Q - p theta, and the n-th
eigenfunction has n-1 interior zeros. In t = ln r it reads (Phi_p(phi_t))' +
kappa Phi_p(phi_t) + lam Phi_p(phi) = 0, autonomous and invariant under
phi -> C phi for every real C, so a solution through a zero continues past
its next zero as a negative multiple of itself shifted by a half-period
T(lam). Its zeros sit at a e^(k T), and lam_n solves n T(lam) = ln(b/a),
with T strictly decreasing and T = pi_p / u for p = 2 and for kappa = 0,
u = (lam - c)^(1/p), pi_p = 2 pi (p-1)^(1/p)/(p sin(pi/p)), pi_2 = pi.
Between two zeros the Riccati variable v = phi_t / phi runs from +inf to
-inf, which gives T as a 1-D integral,

    T(lam) = int_R (p-1) |v|^(p-2) dv / (lam + kappa |v|^(p-2) v + (p-1) |v|^p)

(Elbert 1979; Dosly and Rehak, Half-Linear Differential Equations, 2005),
taken by `quadrature.integrate_batch`; the search runs no ODE. One ODE shot
over a half-period (`_result_from`) gives the eigenfunction and checks lam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .besselpair import solve_flux
from .profiles import Profile
from .quadrature import QuadratureError, integrate_batch
from .scenarios import CheckFailure, ParameterDomainError, require_p

__all__ = [
    "AnnulusProblem",
    "ShootingResult",
    "SearchFailureError",
    "shoot",
    "eigenvalue",
    "check_lambda1_lower_bound",
]

_RTOL, _ATOL = 1e-11, 1e-13     # DOP853 tolerances of the final shot
_MAX_STEPS = 60                 # search steps (half-periods) per eigenvalue
_T_RTOL = 1e-13                 # relative target of each half-period integral
_T_MAX_SUBDIVISIONS = 1 << 12   # bounds each half-period's cost


class SearchFailureError(CheckFailure):
    """The half-period search or one of its integrals failed, or the shot
    at the root failed its half-period check."""


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
        try:
            return abs((self.Q - self.p * self.theta) / self.p) ** self.p
        except OverflowError:
            raise ParameterDomainError("|(Q - p theta)/p|^p overflows") from None


@dataclass(frozen=True)
class ShootingResult:
    lam: float
    zero_count: int
    endpoint_residual: float
    eigenfunction: Profile


def _half_periods(problem: AnnulusProblem, lam: float) -> tuple[float, float]:
    """The two halves of sigma T(lam) for lam > c, from the period integral
    folded onto u = |v| and scaled by sigma = lam^(1/p), w = u / sigma:

        T = (1/sigma) sum over s = +1, -1 of
            int_0^inf (p-1) w^(p-2) dw / (1 + s k w^(p-1) + (p-1) w^p),

    k = |kappa| / sigma, s = +1 (the first value) being the side where
    kappa v >= 0 and s = -1 the side where kappa v < 0. There the
    denominator dips to (lam - c)/lam at w* = (c/lam)^(1/p) and is written
    as ((lam - c) + c F(w/w*)) / lam near w*, F(s) = (p-1) s^p - p s^(p-1) + 1
    with its double zero at s = 1 taken without cancellation. Both integrals
    are the two owners of one `integrate_batch` call at relative target
    _T_RTOL, each integrand divided through by w^(p-2) so that no power
    overflows. A failed integral, or a lam that is not above c, is a
    SearchFailureError."""
    p, c = problem.p, problem.lemma_lower_bound
    if not lam > c:     # lam = c + u^p rounds to c for a tiny u
        raise SearchFailureError(
            f"no half-period at lam = {lam!r} <= c = {c!r}")
    gamma, delta = c / lam, (lam - c) / lam
    w_min = gamma ** (1.0 / p)
    k = p * w_min

    def f(w, owner):
        side = np.where(owner == 0, 1.0, -1.0)[:, None]
        w2p = w ** (2.0 - p)
        den = w2p + (side * k + (p - 1.0) * w) * w
        near = (side < 0) & (np.abs(w - w_min) < 0.5 * w_min)
        e = (w[near] - w_min) / w_min
        m = np.expm1((p - 1.0) * np.log1p(e))       # (1 + e)^(p-1) - 1
        F = ((p - 1.0) * e - m) + (p - 1.0) * e * m
        den[near] = (delta + gamma * F) * w2p[near]
        return (p - 1.0) / den

    halves = integrate_batch(f, [0.0, 0.0], [math.inf, math.inf], [True, True],
                             [False, False], [[], [w_min]],
                             tol=0.0, rel_tol=_T_RTOL,
                             max_subdivisions=_T_MAX_SUBDIVISIONS)
    for est in halves:
        if isinstance(est, QuadratureError):
            raise SearchFailureError(f"half-period integral at lam = {lam!r} "
                                     f"failed: {est}")
    return halves[0].value, halves[1].value


def shoot(problem: AnnulusProblem, lam: float) -> float:
    """The half-period T(lam) = (sum of `_half_periods`) / lam^(1/p)."""
    plus, minus = _half_periods(problem, lam)
    return (plus + minus) / lam ** (1.0 / problem.p)


def _result_from(problem: AnnulusProblem, lam: float, which: int,
                 tol: float) -> ShootingResult:
    """The shot of y_t = Phi_p^-1(w/A) + (kappa/p) y, w_t = -(kappa/p) w -
    lam A Phi_p(y) in t = ln(r/a) from (y, w) = (0, 1) over one half-period
    T = ln(b/a)/which; A = (lam - c)^((1-p)/p) keeps y and w of order 1. The
    rise ends at the turning time, the v > 0 half of the period integral
    (`_half_periods`' first for kappa >= 0, its second below) over
    lam^(1/p), and the fall restarts there: phi is only C^(1,1/(p-1)) at the
    turning point w = 0, and a step across it loses up to 8e-8 in w(T) at
    p = 8. phi = (-1)^k e^(-kappa t/p) y(t - kT) on half-period k, over its
    peak (in log form), which is at the turning point of the first
    (kappa >= 0) or last half-period. Check:
    y > 0 at interior steps, and |y(T)| / max y (the endpoint residual) and
    the end slope's error (|w(T)|^(1/(p-1)) - 1) / max |w|^(1/(p-1)) within
    max(tol, 1e3 _RTOL), each over both legs' steps: the error of w(T)
    scales with w's swing, about |kappa| / (p u) with u = (lam - c)^(1/p)."""
    p, a = problem.p, problem.a
    drift = (problem.Q - p * problem.theta) / p
    T = math.log(problem.b / a) / which
    A = (lam - problem.lemma_lower_bound) ** ((1.0 - p) / p)

    t_turn = (_half_periods(problem, lam)[0 if drift >= 0 else 1]
              / lam ** (1.0 / p))
    rise = solve_flux(A, lam * A, p, (0.0, t_turn), (0.0, 1.0), _RTOL, _ATOL,
                      drift=drift)
    fall = solve_flux(A, lam * A, p, (t_turn, T), rise.y[:, -1], _RTOL, _ATOL,
                      drift=drift)
    y, w = (np.concatenate([rise.y[i], fall.y[i]]) for i in (0, 1))
    residual, bound = float(abs(y[-1]) / np.max(y)), max(tol, 1e3 * _RTOL)
    inv = 1.0 / (p - 1.0)
    slope_error = (abs(w[-1]) ** inv - 1.0) / np.max(np.abs(w)) ** inv
    if not (np.all(y[1:-1] > 0) and max(residual, abs(slope_error)) <= bound):
        raise SearchFailureError(
            f"half-period check failed at lam = {lam!r}: min interior y "
            f"{np.min(y[1:-1]):.3g}, endpoint residual {residual:.3g}, end "
            f"slope error {slope_error:.3g}, bound {bound:.3g}")
    log_peak = math.log(rise.y[0, -1]) - drift * (
        t_turn + (0 if drift >= 0 else which - 1) * T)

    def dense(s):   # (y, w) from the rise's dense output up to the turn
        return np.where(s <= t_turn, rise.sol(np.minimum(s, t_turn)),
                        fall.sol(np.maximum(s, t_turn)))

    def phi(r, slope=False):
        """phi at r, or phi' with slope: (-1)^k e^(-kappa t/p) y over the peak."""
        r = np.asarray(r, dtype=float)
        t = np.log(r / a)
        k = np.clip(np.floor(t / T), 0, which - 1)
        y, w = dense(t - k * T)
        scale = (1 - 2 * (k % 2)) * np.exp(-drift * t - log_peak)
        if slope:   # phi' = phi_t / r
            return scale * np.sign(w) * np.abs(w / A) ** (1 / (p - 1)) / r
        return scale * y

    return ShootingResult(lam, which - 1, residual, Profile(
        phi, lambda r: phi(r, slope=True), (a, problem.b)))


def eigenvalue(problem: AnnulusProblem, which: int = 1,
               tol: float = 1e-8) -> ShootingResult:
    """The which-th eigenvalue: the root of F(x) = ln(which T / ln(b/a)) in
    x = ln u, from the larger of u_0 = which pi_p / ln(b/a) and the near-c
    asymptote (equal for p = 2), so the first step x_1 = x_0 + F_0 is exact
    for p = 2 and kappa = 0; later steps are secants through the last two
    half-periods, bisecting when one leaves the sign bracket. The search
    stops at a step below max(tol/p, _RTOL), so tol in (0, 1e-6] bounds lam's
    relative error down to what the half-periods (`shoot`) resolve;
    `_result_from` then checks the root."""
    if not 0 < tol <= 1e-6:     # looser, the root can land past lam_which
        raise ParameterDomainError(f"tol must be in (0, 1e-6], got {tol}")
    if which < 1:
        raise ParameterDomainError(f"which must be >= 1, got {which}")
    p, c = problem.p, problem.lemma_lower_bound
    span = math.log(problem.b / problem.a)
    width = max(tol / p, _RTOL)
    x = math.log(which * 2.0 * math.pi * (p - 1.0) ** (1.0 / p)
                 / (p * math.sin(math.pi / p) * span))
    if c:   # near c, lam - c ~ 2 pi^2 (p-1) n^2 c^((p-2)/p) / (p ln(b/a)^2)
        x = max(x, (math.log(2.0 * math.pi ** 2 * (p - 1.0) / p) + math.log(c)
                    * (p - 2.0) / p + 2.0 * math.log(which / span)) / p)
    lo, hi, last = -math.inf, math.inf, None    # F(lo) > 0 > F(hi)
    try:
        for _ in range(_MAX_STEPS):
            f = math.log(which * shoot(problem, c + math.exp(p * x)) / span)
            lo, hi = (x, hi) if f > 0 else (lo, x)
            slope = -1.0 if last is None else (f - last[1]) / (x - last[0])
            step = -f / slope if slope < 0 else f
            last = (x, f)
            if abs(step) <= width:
                x += step
                break
            x = x + step if lo < x + step < hi else 0.5 * (lo + hi)
        else:
            raise SearchFailureError(f"half-period search for eigenvalue {which} "
                                     f"did not converge in {_MAX_STEPS} steps")
        lam = c + math.exp(p * x)
    except OverflowError:
        raise ParameterDomainError(f"lam = c + exp(p x) overflows at p = {p!r}") from None
    return _result_from(problem, lam, which, tol)


def check_lambda1_lower_bound(problem: AnnulusProblem, result: ShootingResult,
                              tol: float = 1e-8) -> bool:
    """True iff the computed lam_1 clears the lemma bound |(Q-p theta)/p|^p by
    more than its own error budget tol * lam, tol being the search's."""
    return result.lam - problem.lemma_lower_bound > tol * result.lam
