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
taken by `quadrature.integrate_batch`. Nothing here integrates an ODE: the
eigenfunction comes from the same integrand. From the peak, where v = 0,

    t(v) - t_peak = -int_0^v (p-1) |s|^(p-2) ds / D(s),
    ln(phi / phi_peak) = -int_0^v (p-1) |s|^(p-2) s ds / D(s),

D the denominator above (the generalized Pruefer transformation), so phi at
a given r is a Newton solve for v in the first, then the second integral.
The root is checked by its own half-period: which T(lam) must meet ln(b/a).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .profiles import Profile
from .quadrature import QuadratureError, integrate_batch
from .scenarios import (CheckFailure, ParameterDomainError, require_annulus,
                        require_p)

__all__ = [
    "AnnulusProblem",
    "ShootingResult",
    "SearchFailureError",
    "shoot",
    "eigenvalue",
    "check_lambda1_lower_bound",
]

_MAX_STEPS = 60                 # search steps (half-periods) per eigenvalue
_MIN_WIDTH = 1e-11              # floor of the search's last step in x = ln u
_CHECK_FLOOR = 1e-8             # floor of the half-period check's bound
_T_RTOL = 1e-13                 # relative target of each half-period integral
_T_MAX_SUBDIVISIONS = 1 << 12   # bounds each half-period's cost
_W_SPLIT = 4.0                  # w where the eigenfunction's two charts meet
_NODES = 32                     # nodes of each chart's starting table
_NEWTON_STEPS = 60              # Newton (or secant) steps per point
_NEWTON_RTOL = 1e-8             # a Newton step this small (relative) is the
                                # last: its square bounds the error it leaves


class SearchFailureError(CheckFailure):
    """The half-period search or one of its integrals failed, the root
    failed its half-period check, or its eigenfunction could not be
    evaluated."""


@dataclass(frozen=True)
class AnnulusProblem:
    Q: float
    p: float
    theta: float
    a: float
    b: float

    def __post_init__(self) -> None:
        require_p(self.p)
        for name in ("Q", "theta", "b"):   # require_annulus then bounds a too
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ParameterDomainError(f"{name} must be finite, got {value}")
        require_annulus(self.a, self.b)

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


def _period_rate(p: float, c: float, lam: float):
    """The period integrand for lam > c, folded onto u = |v| and scaled by
    sigma = lam^(1/p), w = u / sigma: sigma dt/du on either side of the peak,

        rate(w, side) = (p-1) w^(p-2) / (1 + side k w^(p-1) + (p-1) w^p),

    k = |kappa| / sigma, side = +1 where kappa v >= 0 and -1 where kappa v <
    0. There the denominator dips to (lam - c)/lam at w* = (c/lam)^(1/p) and
    is written as ((lam - c) + c F(w/w*)) / lam near w*, F(s) = (p-1) s^p -
    p s^(p-1) + 1 with its double zero at s = 1 taken without cancellation;
    it is divided through by w^(p-2) so that no power overflows. Returns
    rate, w* and k."""
    gamma, delta = c / lam, (lam - c) / lam
    w_min = gamma ** (1.0 / p)
    k = p * w_min

    def rate(w, side):
        w2p = w ** (2.0 - p)
        den = w2p + (side * k + (p - 1.0) * w) * w
        near = (side < 0) & (np.abs(w - w_min) < 0.5 * w_min)
        e = (w[near] - w_min) / w_min
        m = np.expm1((p - 1.0) * np.log1p(e))       # (1 + e)^(p-1) - 1
        F = ((p - 1.0) * e - m) + (p - 1.0) * e * m
        den[near] = (delta + gamma * F) * w2p[near]
        return (p - 1.0) / den

    return rate, w_min, k


def _half_periods(problem: AnnulusProblem, lam: float) -> tuple[float, float]:
    """The two halves of sigma T(lam) for lam > c: `_period_rate` integrated
    over w in (0, inf), side +1 first, as the two owners of one
    `integrate_batch` call at relative target _T_RTOL. A failed integral, or
    a lam that is not above c, is a SearchFailureError."""
    p, c = problem.p, problem.lemma_lower_bound
    if not lam > c:     # lam = c + u^p rounds to c for a tiny u
        raise SearchFailureError(
            f"no half-period at lam = {lam!r} <= c = {c!r}")
    rate, w_min, _ = _period_rate(p, c, lam)
    try:
        plus, minus = integrate_batch(
            lambda w, owner: rate(w, np.where(owner == 0, 1.0, -1.0)[:, None]),
            [0.0, 0.0], [math.inf, math.inf], [True, True],
            points=[[math.nan], [w_min]], tol=0.0, rel_tol=_T_RTOL,
            max_subdivisions=_T_MAX_SUBDIVISIONS).value.tolist()
    except QuadratureError as err:
        raise SearchFailureError(f"half-period integral at lam = {lam!r} "
                                 f"failed: {err}") from None
    return plus, minus


def shoot(problem: AnnulusProblem, lam: float) -> float:
    """The half-period T(lam) = (sum of `_half_periods`) / lam^(1/p)."""
    plus, minus = _half_periods(problem, lam)
    return (plus + minus) / lam ** (1.0 / problem.p)


def _eigenfunction(problem: AnnulusProblem, lam: float, which: int,
                   halves: tuple[float, float]) -> Profile:
    """phi at lam from the period integrand, with no ODE. On a half-period
    v = phi_t / phi falls from +inf at a zero through 0 at the peak to -inf
    at the next zero, and on each side of the peak, in sigma t and w =
    |v| / sigma (`_period_rate`), two charts give the time and ln(phi/peak):
      - the peak chart, w <= _W_SPLIT: int_0^w rate from the peak, and
        -int_0^w x rate(x) dx;
      - the zero chart, y = 1/w <= 1/_W_SPLIT: int_0^y g from the zero, g =
        (p-1)/P, and C + ln y - int_0^y q, q = (side k + y^(p-1))/P, P =
        p - 1 + (side k + y^(p-1)) y, where the constant C (per side) ties
        the two charts at the split; neither has a cancellation or overflow.
    The rise (v > 0) runs from the zero at t = 0 to the peak at its half of
    `halves` over sigma, and the fall from there to the zero at the sum of
    both. A point's w (or y) solves its time by Newton steps from a table of
    each chart (`charts`), each step one `integrate_batch` call with one
    owner per open point, until a step moves it by <= _NEWTON_RTOL relative;
    one more call takes the log integrals, and phi_t = v phi. On half-period
    k of T = ln(b/a)/which, phi is (-1)^k e^(-kappa k T/p) times the first,
    over the peak of the first (kappa >= 0) or the last half-period. A
    failed integral, or a point open after _NEWTON_STEPS steps, is a
    SearchFailureError."""
    p, a = problem.p, problem.a
    drift = (problem.Q - p * problem.theta) / p
    sigma = lam ** (1.0 / p)
    T = math.log(problem.b / a) / which
    rise_side = 0 if drift >= 0 else 1
    t_rise = halves[rise_side] / sigma
    t_zero = (halves[0] + halves[1]) / sigma
    k_peak = 0 if drift >= 0 else which - 1
    rate, w_min, k = _period_rate(p, problem.lemma_lower_bound, lam)

    def rates(x, side, zero, log):
        """The time (log: the log) rate of each point's chart and side."""
        s = 1.0 - 2.0 * side
        num = s * k + x ** (p - 1.0)
        zero_rate = np.where(log, num, p - 1.0) / (p - 1.0 + num * x)
        return np.where(zero, zero_rate, np.where(log, x, 1.0) * rate(x, s))

    def integrals(lo, hi, side, zero, log):
        """int_lo^hi of each point's rates, 0 where hi <= lo."""
        out = np.zeros_like(hi)
        live = (hi > lo).nonzero()[0]
        if not live.size:
            return out
        side, zero, log, lo = side[live], zero[live], log[live], lo[live]

        def f(v, o):
            return rates(v, side[o, None], zero[o, None], log[o, None])

        try:    # the peak chart's rates go like w^(p-2) at w = 0
            out[live] = integrate_batch(
                f, lo, hi[live], (lo == 0) & ~zero,
                points=np.where(side & ~zero, w_min, math.nan)[:, None],
                tol=0.0, rel_tol=_T_RTOL,
                max_subdivisions=_T_MAX_SUBDIVISIONS).value
        except QuadratureError as err:
            raise SearchFailureError(f"eigenfunction integral at lam = "
                                     f"{lam!r} failed: {err}") from None
        return out

    @functools.cache
    def charts():
        """Each chart's _NODES + 1 nodes from 0 to twice its split (nodes[c],
        c = 0 for the peak chart) and the integrals of its two rates up to
        each (table[side, log, c]), summed over cells from one
        `integrate_batch` call; per side, the time from a zero to the split
        and C."""
        grid = np.linspace(0.0, 2.0, _NODES + 1)
        nodes = np.array([_W_SPLIT * grid, grid / _W_SPLIT])
        shape = (2, 2, 2, _NODES)
        side, log, chart, _ = np.indices(shape).reshape(4, -1)
        cells = integrals(*(np.broadcast_to(x, shape).ravel()
                            for x in (nodes[:, :-1], nodes[:, 1:])),
                          side, chart == 1, log == 1)
        table = np.zeros(shape[:-1] + (_NODES + 1,))
        table[..., 1:] = np.cumsum(cells.reshape(shape), axis=-1)
        mid = _NODES // 2
        return (nodes, table, np.array(halves) - table[:, 0, 0, mid],
                table[:, 1, 1, mid] - table[:, 1, 0, mid] + math.log(_W_SPLIT))

    def solve(target, side, zero):
        """Each point's w (or y) whose chart time is its target, and the
        index of the node below it. It starts in its cell of the chart's
        nodes, linear there in the time (zero chart) or its 1/(p-1) power
        (peak chart, where the time ~ w^(p-1)), integrates from the node
        below, and keeps a bracket: a step off it is replaced by the
        bracket's secant (Illinois: Dowell and Jarratt 1971)."""
        nodes, table = charts()[:2]
        chart, rows = zero.astype(int), np.arange(target.size)
        times = table[side, 0, chart]
        i = np.clip(np.count_nonzero(times < target[:, None], axis=1),
                    1, _NODES)
        base, hi = nodes[chart, i - 1], nodes[chart, i]
        lo = base.copy()
        below, above = times[rows, i - 1] - target, times[rows, i] - target
        moved = np.zeros(target.size)   # the end that moved last: -1 lo, 1 hi
        g = np.where(zero, 1.0, 1.0 / (p - 1.0))
        t0, t1 = times[rows, i - 1] ** g, times[rows, i] ** g
        x = lo + (hi - lo) * (target ** g - t0) / (t1 - t0)
        open_ = (target > 0).nonzero()[0]
        for _ in range(_NEWTON_STEPS):
            if not open_.size:
                return x, i - 1
            xs, s, z = x[open_], side[open_], zero[open_]
            miss = integrals(base[open_], xs, s, z, np.zeros(xs.size, bool)) \
                + times[open_, i[open_] - 1] - target[open_]
            # an end that stays twice has its miss halved (Illinois), so
            # that the secant cannot stall against it
            up = np.sign(miss)
            again = (up == moved[open_]) & (up != 0)
            below[open_] *= np.where(again & (up > 0), 0.5, 1.0)
            above[open_] *= np.where(again & (up < 0), 0.5, 1.0)
            moved[open_] = up
            for end, at, keep in ((lo, below, miss >= 0),
                                  (hi, above, miss <= 0)):
                end[open_] = np.where(keep, end[open_], xs)
                at[open_] = np.where(keep, at[open_], miss)
            l, h, ml, mh = lo[open_], hi[open_], below[open_], above[open_]
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                newton = xs - miss / rates(xs, s, z, False)
            inside = (newton >= l) & (newton <= h)
            x[open_] = np.where(inside, newton, l - ml * (h - l) / (mh - ml))
            open_ = open_[~inside | (np.abs(newton - xs) > _NEWTON_RTOL * xs)]
        raise SearchFailureError(
            f"eigenfunction at lam = {lam!r}: {open_.size} points open after "
            f"{_NEWTON_STEPS} Newton steps")

    def phi(r, slope=False):
        """phi at r, or phi' with slope, over the peak."""
        r = np.asarray(r, dtype=float)
        t = np.log(r.ravel() / a)
        half = np.clip(np.floor(t / T), 0, which - 1)
        s = t - half * T
        rise = s <= t_rise
        side = np.where(rise, rise_side, 1 - rise_side)
        nodes, table, to_split, C = charts()
        from_zero = sigma * np.maximum(np.where(rise, s, t_zero - s), 0.0)
        zero = from_zero <= to_split[side]
        x, j = solve(np.where(zero, from_zero, sigma * np.abs(s - t_rise)),
                     side, zero)
        chart = zero.astype(int)
        log = table[side, 1, chart, j] + integrals(
            nodes[chart, j], x, side, zero, np.ones(x.size, bool))
        w_phi = np.where(zero, np.exp(C[side] - log), x * np.exp(-log))
        scale = (1 - 2 * (half % 2)) * np.exp(-drift * (half - k_peak) * T)
        if slope:   # phi' = v phi / r
            out = scale * np.where(rise, sigma, -sigma) * w_phi / r.ravel()
        else:
            out = scale * np.where(zero, x * w_phi, np.exp(-log))
        return out.reshape(r.shape)

    return Profile(phi, lambda r: phi(r, slope=True), (a, problem.b))


def eigenvalue(problem: AnnulusProblem, which: int = 1,
               tol: float = 1e-8) -> ShootingResult:
    """The which-th eigenvalue: the root of F(x) = ln(which T / ln(b/a)) in
    x = ln u, from the larger of u_0 = which pi_p / ln(b/a) and the near-c
    asymptote (equal for p = 2), so the first step x_1 = x_0 + F_0 is exact
    for p = 2 and kappa = 0; later steps are secants through the last two
    half-periods, bisecting when one leaves the sign bracket. The search
    stops at a step below max(tol/p, _MIN_WIDTH), so tol in (0, 1e-6] bounds
    lam's relative error down to what the half-periods (`shoot`) resolve.
    One `_half_periods` call at the root then gives T(lam) and the
    eigenfunction's rise and fall, and the root fails unless |which T(lam) -
    ln(b/a)| / ln(b/a), the endpoint residual, is within max(tol,
    _CHECK_FLOOR)."""
    if not 0 < tol <= 1e-6:     # looser, the root can land past lam_which
        raise ParameterDomainError(f"tol must be in (0, 1e-6], got {tol}")
    if which < 1:
        raise ParameterDomainError(f"which must be >= 1, got {which}")
    p, c = problem.p, problem.lemma_lower_bound
    span = math.log(problem.b / problem.a)
    width = max(tol / p, _MIN_WIDTH)
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
    halves = _half_periods(problem, lam)
    residual = abs(which * ((halves[0] + halves[1]) / lam ** (1.0 / p))
                   - span) / span
    bound = max(tol, _CHECK_FLOOR)
    if not residual <= bound:
        raise SearchFailureError(
            f"half-period check failed at lam = {lam!r}: which T(lam) misses "
            f"ln(b/a) by {residual:.3g} relative, bound {bound:.3g}")
    return ShootingResult(lam, which - 1, residual,
                          _eigenfunction(problem, lam, which, halves))


def check_lambda1_lower_bound(problem: AnnulusProblem, result: ShootingResult,
                              tol: float = 1e-8) -> bool:
    """True iff the computed lam_1 clears the lemma bound |(Q-p theta)/p|^p by
    more than its own error budget tol * lam, tol being the search's."""
    return result.lam - problem.lemma_lower_bound > tol * result.lam
