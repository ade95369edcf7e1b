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

The shot integrates the flux system in t = ln r, with constant coefficients
and a constant drift, by `solve_flux`: forward DOP853 steps in Python floats,
with the tableau, initial step and step control of scipy's `solve_ivp`, and
no scipy import; the stage sums are straight-line code generated at import
from the tableau. The same code over numpy arrays reads the solution between
step ends, as one step from the step end below each point.
"""

from __future__ import annotations

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
    "FluxSolution",
    "solve_flux",
    "shoot",
    "eigenvalue",
    "check_lambda1_lower_bound",
]

_RTOL, _ATOL = 1e-11, 1e-13     # DOP853 tolerances of every flux solve
_MAX_STEPS = 60                 # search steps (half-periods) per eigenvalue
_T_RTOL = 1e-13                 # relative target of each half-period integral
_T_MAX_SUBDIVISIONS = 1 << 12   # bounds each half-period's cost
# RHS budget of one solve; the largest legitimate solve seen needs ~4e4
_MAX_NFEV = 1_000_000


class SearchFailureError(CheckFailure):
    """The half-period search or one of its integrals failed, or the shot
    at the root could not be integrated or failed its half-period check."""


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

    try:
        plus, minus = integrate_batch(
            f, [0.0, 0.0], [math.inf, math.inf], [True, True], [False, False],
            [[], [w_min]], tol=0.0, rel_tol=_T_RTOL,
            max_subdivisions=_T_MAX_SUBDIVISIONS)
    except QuadratureError as err:
        raise SearchFailureError(f"half-period integral at lam = {lam!r} "
                                 f"failed: {err}") from None
    return plus.value, minus.value


def shoot(problem: AnnulusProblem, lam: float) -> float:
    """The half-period T(lam) = (sum of `_half_periods`) / lam^(1/p)."""
    plus, minus = _half_periods(problem, lam)
    return (plus + minus) / lam ** (1.0 / problem.p)


# DOP853 (Hairer, Norsett and Wanner, Solving Ordinary Differential Equations
# I, 2nd ed., II.5): the coefficients of Hairer's dop853.f, transcribed
# from scipy/integrate/_ivp/dop853_coefficients.py. Each stage is (c, {j: a_j})
# over its row's nonzero entries: stages 1-11, then (1, B), whose stage is
# f(t + h, y_new). The error estimates weigh the stages by _E5 and by
# _E3 = B - _BHH.
_STAGES = (
    (0.526001519587677318785587544488e-01, {
        0: 5.26001519587677318785587544488e-2
    }),
    (0.789002279381515978178381316732e-01, {
        0: 1.97250569845378994544595329183e-2,
        1: 5.91751709536136983633785987549e-2
    }),
    (0.118350341907227396726757197510, {
        0: 2.95875854768068491816892993775e-2,
        2: 8.87627564304205475450678981324e-2
    }),
    (0.281649658092772603273242802490, {
        0: 2.41365134159266685502369798665e-1,
        2: -8.84549479328286085344864962717e-1,
        3: 9.24834003261792003115737966543e-1
    }),
    (0.333333333333333333333333333333, {
        0: 3.7037037037037037037037037037e-2,
        3: 1.70828608729473871279604482173e-1,
        4: 1.25467687566822425016691814123e-1
    }),
    (0.25, {
        0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
        4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2
    }),
    (0.307692307692307692307692307692, {
        0: 3.70920001185047927108779319836e-2,
        3: 1.70383925712239993810214054705e-1,
        4: 1.07262030446373284651809199168e-1,
        5: -1.53194377486244017527936158236e-2,
        6: 8.27378916381402288758473766002e-3
    }),
    (0.651282051282051282051282051282, {
        0: 6.24110958716075717114429577812e-1,
        3: -3.36089262944694129406857109825,
        4: -8.68219346841726006818189891453e-1,
        5: 2.75920996994467083049415600797e1,
        6: 2.01540675504778934086186788979e1,
        7: -4.34898841810699588477366255144e1
    }),
    (0.6, {
        0: 4.77662536438264365890433908527e-1,
        3: -2.48811461997166764192642586468,
        4: -5.90290826836842996371446475743e-1,
        5: 2.12300514481811942347288949897e1,
        6: 1.52792336328824235832596922938e1,
        7: -3.32882109689848629194453265587e1,
        8: -2.03312017085086261358222928593e-2
    }),
    (0.857142857142857142857142857142, {
        0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
        4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
        6: -1.85200656599969598641566180701e1,
        7: 2.27394870993505042818970056734e1, 8: 2.49360555267965238987089396762,
        9: -3.0467644718982195003823669022
    }),
    (1.0, {
        0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
        4: -2.00087205822486249909675718444,
        5: -1.79589318631187989172765950534e1,
        6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
        8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
        10: 6.43392746015763530355970484046e-1
    }),
    (1.0, {
        0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
        6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
        8: 3.1116436695781989440891606237e-1,
        9: -1.52160949662516078556178806805e-1,
        10: 2.01365400804030348374776537501e-1,
        11: 4.47106157277725905176885569043e-2
    }),
)
_E5 = {
    0: 0.1312004499419488073250102996e-1,
    5: -0.1225156446376204440720569753e+1, 6: -0.4957589496572501915214079952,
    7: 0.1664377182454986536961530415e+1, 8: -0.3503288487499736816886487290,
    9: 0.3341791187130174790297318841, 10: 0.8192320648511571246570742613e-1,
    11: -0.2235530786388629525884427845e-1
}
_BHH = {0: 0.244094488188976377952755905512,
        8: 0.733846688281611857341361741547,
        11: 0.220588235294117647058823529412e-1}
_E3 = {j: b - _BHH.get(j, 0.0) for j, b in _STAGES[-1][1].items()}
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1 / 8        # -1 / (error estimator order + 1)


# The stage sums as straight-line code, generated once from the tableau above.
# K holds the stage slopes as k{j}_0, k{j}_1 (phi and m of stage j). Every sum
# starts from 0.0 and adds a_j k_j left to right in its row's order, and the
# RHS is solve_flux's: phi' = Phi_p^-1(m / A) + d phi, m' = -d m - B Phi_p(phi)
# with Phi_p^-1(w) = |w|^inv sign w, inv = 1/(p-1), Phi_p(x) = |x|^q x, q = p-2.
_RHS = ("w = z1 / A",
        "k{s}_0 = copysign(abs(w) ** inv, w) + d * z0",
        "k{s}_1 = -d * z1 - B * abs(z0) ** q * z0")


def _sum(row, i):
    """Source of sum_j a_j K[j] over a row's nonzero {j: a_j}, component i."""
    return "0.0" + "".join(f" + k{j}_{i} * {a!r}" for j, a in row.items())


def _stage_lines(stages, first):
    """Source of each stage: its state y + h sum_j a_j K[j] and its slope,
    the first being stage `first`."""
    lines = []
    for n, (_, row) in enumerate(stages):
        lines += [f"z{i} = y{i} + ({_sum(row, i)}) * h" for i in (0, 1)]
        lines += [x.format(s=first + n) for x in _RHS]
    return lines


def _generate(name, lines, result, copysign=math.copysign):
    """Compile `name(y0, y1, h, K, A, B, inv, q, d)` from its body's lines,
    with math.copysign for floats or np.copysign for arrays."""
    body = "".join(f"    {x}\n" for x in lines + [f"return {result}"])
    namespace = {"copysign": copysign}
    exec(compile(f"def {name}(y0, y1, h, K, A, B, inv, q, d):\n{body}",
                 f"<dop853 {name}>", "exec"), namespace)
    return namespace[name]


_K13 = ", ".join(f"k{j}_{i}" for j in range(len(_STAGES) + 1) for i in (0, 1))
# the RHS at (y0, y1): a start evaluation
_slope = _generate("slope", ["z0, z1 = y0, y1"]
                   + [x.format(s=0) for x in _RHS], "k0_0, k0_1")
# a step from the slope K = (k0_0, k0_1) at its start: the 13 slopes (the
# last at y_new is the next step's first), y_new and the E5 and E3 estimates
_step = _generate(
    "step", ["k0_0, k0_1 = K"] + _stage_lines(_STAGES, 1),
    f"({_K13}), (z0, z1), ({_sum(_E5, 0)}, {_sum(_E5, 1)}), "
    f"({_sum(_E3, 0)}, {_sum(_E3, 1)})")
# the same step over numpy arrays, to y_new only: FluxSolution.sol
_step_to = _generate("step_to", ["k0_0, k0_1 = K"]
                     + _stage_lines(_STAGES, 1)[:-len(_RHS)], "z0, z1",
                     np.copysign)


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(slope, y0, f0, interval_length):
    """scipy's select_initial_step (Hairer, Norsett and Wanner, II.4) for an
    error estimator of order 7, no step bound, a forward span of
    interval_length and the tolerances _RTOL and _ATOL, in its numpy
    expressions; the RHS `slope` is autonomous."""
    y0, f0 = np.array(y0), np.array(f0)
    scale = _ATOL + np.abs(y0) * _RTOL
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * f0
    f1 = np.array(slope(tuple(y1.tolist())))
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return float(min(100 * h0, h1, interval_length))


def _float_fault(exc):
    fault = "overflow" if isinstance(exc, OverflowError) else "division by zero"
    return SearchFailureError(f"ODE integration failed: float {fault} in the "
                              "right-hand side")


@dataclass(frozen=True)
class FluxSolution:
    """A `solve_flux` solve: the step ends t, the states y (2 x len(t)) and
    nfev, the RHS evaluations it took. `f` (2 x len(t)) is the RHS at each
    step end and `consts` the RHS constants (A, B, 1/(p-1), p-2, drift) of
    the generated code; `sol` reads the solve between step ends."""
    t: np.ndarray
    y: np.ndarray
    nfev: int
    f: np.ndarray
    consts: tuple

    def sol(self, t):
        """(phi, m) at t, a float or an array: one DOP853 step of size t - t_k
        from the last step end t_k at or below t (from t_0 below the span),
        taken for all points at once by the stage code over arrays. It gives
        y exactly at each step end and adds nothing to nfev. A float
        overflow, division by zero or invalid value in that step is a
        SearchFailureError."""
        t = np.asarray(t, dtype=float)
        k = np.maximum(np.searchsorted(self.t, t, side="right") - 1, 0)
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                return np.array(_step_to(*self.y[:, k], t - self.t[k],
                                         self.f[:, k], *self.consts))
        except FloatingPointError as exc:
            raise SearchFailureError(
                f"ODE integration failed: float {exc} while reading the "
                "solution") from exc


def solve_flux(A: float, B: float, p: float, span, y0,
               drift: float) -> FluxSolution:
    """Integrate (A |phi'|^(p-2) phi')' + B |phi|^(p-2) phi = 0 with constant
    A and B forward over span = (t0, t1) for (phi, m), m = A |phi'|^(p-2)
    phi'; a drift d adds d phi to phi' and -d m to m'. Its steps are scipy's
    solve_ivp(rhs, span, y0, method="DOP853", rtol=_RTOL, atol=_ATOL) on
    Python floats: scipy's initial step, then each step as scipy's DOP853
    takes it (the E5/E3 error norm and its controller: safety 0.9, factors
    0.2 to 10, exponent -1/8, the minimum step and the clamp to t1), summing
    each stage over its row's nonzero entries. A span with t1 <= t0 is a
    ValueError; a float overflow or division by zero in the RHS, a step
    below the float spacing or more than _MAX_NFEV RHS evaluations is a
    SearchFailureError."""
    t0, t_bound = float(span[0]), float(span[1])
    if not t0 < t_bound:
        raise ValueError(f"span ({t0!r}, {t_bound!r}) does not run forward")
    consts = (float(A), float(B), 1.0 / (p - 1.0), p - 2.0, drift)

    def slope(y):
        return _slope(*y, 0.0, (), *consts)

    y, t = (float(y0[0]), float(y0[1])), t0
    nfev = 2                    # f(t0) and the initial step's probe
    try:
        f = slope(y)
        h_abs = _initial_step(slope, y, f, t_bound - t0)
        ends = [(t, y, f)]
        while t < t_bound:
            min_step = 10 * (math.nextafter(t, math.inf) - t)
            h_abs = max(h_abs, min_step)
            rejected = False
            while True:
                if h_abs < min_step:
                    raise SearchFailureError(
                        "ODE integration failed: Required step size is less "
                        "than spacing between numbers.")
                if nfev > _MAX_NFEV:
                    raise SearchFailureError(f"ODE integration failed: more "
                                             f"than {_MAX_NFEV} RHS evaluations")
                t_new = min(t + h_abs, t_bound)
                h_abs = t_new - t
                K, y_new, e5s, e3s = _step(*y, h_abs, f, *consts)
                nfev += len(_STAGES)
                err5 = err3 = 0.0
                for e5, e3, u, v in zip(e5s, e3s, y, y_new):
                    scale = _ATOL + max(abs(u), abs(v)) * _RTOL
                    e5, e3 = e5 / scale, e3 / scale
                    err5 += e5 * e5
                    err3 += e3 * e3
                error_norm = 0.0 if err5 == 0 else \
                    h_abs * err5 / math.sqrt((err5 + 0.01 * err3) * 2)
                if error_norm < 1:
                    factor = _MAX_FACTOR if error_norm == 0 else min(
                        _MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                    h_abs *= min(1, factor) if rejected else factor
                    break
                h_abs *= max(_MIN_FACTOR,
                             _SAFETY * error_norm ** _ERROR_EXPONENT)
                rejected = True
            t, y, f = t_new, y_new, K[-2:]
            ends.append((t, y, f))
    except (OverflowError, ZeroDivisionError) as exc:
        raise _float_fault(exc) from exc
    t, y, f = (np.array(x) for x in zip(*ends))
    return FluxSolution(t, y.T, nfev, f.T, consts)


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
    rise = solve_flux(A, lam * A, p, (0.0, t_turn), (0.0, 1.0), drift)
    fall = solve_flux(A, lam * A, p, (t_turn, T), rise.y[:, -1], drift)
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

    def shot(s):    # (y, w): the rise's before the turn, the fall's after
        yw, fell = np.empty((2,) + s.shape), s >= t_turn
        yw[:, ~fell], yw[:, fell] = rise.sol(s[~fell]), fall.sol(s[fell])
        return yw

    def phi(r, slope=False):
        """phi at r, or phi' with slope: (-1)^k e^(-kappa t/p) y over the peak."""
        r = np.asarray(r, dtype=float)
        t = np.log(r / a)
        k = np.clip(np.floor(t / T), 0, which - 1)
        y, w = shot(t - k * T)
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
