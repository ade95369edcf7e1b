"""Certification of Bessel pairs along the radial ODE

    (V(r) r^(Q-1) |phi'|^(p-2) phi')' + lam W(r) r^(Q-1) |phi|^(p-2) phi = 0.

The state is (phi, m) with the p-Laplacian flux m = V r^(Q-1) |phi'|^(p-2) phi'
as momentum, which stays smooth across phi' = 0; phi' is recovered by the
inversion |m|^(1/(p-1)) with the sign carried separately. Integration never
starts at the singular origin: initial data is seeded at an interior point
from the closed form. `solve_flux` also integrates the annulus eigenfunction
of `spectral`, in t = ln r with constant coefficients and a constant drift.
It steps by DOP853 in Python floats, with the tableau, initial step, step
control and dense output of scipy's `solve_ivp`, and imports no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .profiles import Profile
from .scenarios import (CheckFailure, Exponents, RadialWeightPair, Scenario,
                        closed_form_maximizer)

__all__ = [
    "BesselCertificate",
    "ODEFailure",
    "FluxSolution",
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


# DOP853 (Hairer, Norsett and Wanner, Solving Ordinary Differential Equations
# I, 2nd ed., II.5-II.6): the coefficients of Hairer's dop853.f, transcribed
# from scipy/integrate/_ivp/dop853_coefficients.py. Each stage is (c, {j: a_j})
# over its row's nonzero entries: stages 1-11, then (1, B), whose stage is
# f(t + h, y_new); _EXTRA are the three more stages of the order-7 dense
# output, whose coefficients are _D. The error estimates weigh the stages by
# _E5 and by _E3 = B - _BHH.
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
_EXTRA = (
    (0.1, {
        0: 5.61675022830479523392909219681e-2,
        6: 2.53500210216624811088794765333e-1,
        7: -2.46239037470802489917441475441e-1,
        8: -1.24191423263816360469010140626e-1,
        9: 1.5329179827876569731206322685e-1,
        10: 8.20105229563468988491666602057e-3,
        11: 7.56789766054569976138603589584e-3, 12: -8.298e-3
    }),
    (0.2, {
        0: 3.18346481635021405060768473261e-2,
        5: 2.83009096723667755288322961402e-2,
        6: 5.35419883074385676223797384372e-2,
        7: -5.49237485713909884646569340306e-2,
        10: -1.08347328697249322858509316994e-4,
        11: 3.82571090835658412954920192323e-4,
        12: -3.40465008687404560802977114492e-4,
        13: 1.41312443674632500278074618366e-1
    }),
    (0.777777777777777777777777777778, {
        0: -4.28896301583791923408573538692e-1,
        5: -4.69762141536116384314449447206, 6: 7.68342119606259904184240953878,
        7: 4.06898981839711007970213554331, 8: 3.56727187455281109270669543021e-1,
        12: -1.39902416515901462129418009734e-3,
        13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138
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
_D = (
    {
        0: -0.84289382761090128651353491142e+1,
        5: 0.56671495351937776962531783590,
        6: -0.30689499459498916912797304727e+1,
        7: 0.23846676565120698287728149680e+1,
        8: 0.21170345824450282767155149946e+1,
        9: -0.87139158377797299206789907490,
        10: 0.22404374302607882758541771650e+1,
        11: 0.63157877876946881815570249290,
        12: -0.88990336451333310820698117400e-1,
        13: 0.18148505520854727256656404962e+2,
        14: -0.91946323924783554000451984436e+1,
        15: -0.44360363875948939664310572000e+1
    },
    {
        0: 0.10427508642579134603413151009e+2,
        5: 0.24228349177525818288430175319e+3,
        6: 0.16520045171727028198505394887e+3,
        7: -0.37454675472269020279518312152e+3,
        8: -0.22113666853125306036270938578e+2,
        9: 0.77334326684722638389603898808e+1,
        10: -0.30674084731089398182061213626e+2,
        11: -0.93321305264302278729567221706e+1,
        12: 0.15697238121770843886131091075e+2,
        13: -0.31139403219565177677282850411e+2,
        14: -0.93529243588444783865713862664e+1,
        15: 0.35816841486394083752465898540e+2
    },
    {
        0: 0.19985053242002433820987653617e+2,
        5: -0.38703730874935176555105901742e+3,
        6: -0.18917813819516756882830838328e+3,
        7: 0.52780815920542364900561016686e+3,
        8: -0.11573902539959630126141871134e+2,
        9: 0.68812326946963000169666922661e+1,
        10: -0.10006050966910838403183860980e+1,
        11: 0.77771377980534432092869265740,
        12: -0.27782057523535084065932004339e+1,
        13: -0.60196695231264120758267380846e+2,
        14: 0.84320405506677161018159903784e+2,
        15: 0.11992291136182789328035130030e+2
    },
    {
        0: -0.25693933462703749003312586129e+2,
        5: -0.15418974869023643374053993627e+3,
        6: -0.23152937917604549567536039109e+3,
        7: 0.35763911791061412378285349910e+3,
        8: 0.93405324183624310003907691704e+2,
        9: -0.37458323136451633156875139351e+2,
        10: 0.10409964950896230045147246184e+3,
        11: 0.29840293426660503123344363579e+2,
        12: -0.43533456590011143754432175058e+2,
        13: 0.96324553959188282948394950600e+2,
        14: -0.39177261675615439165231486172e+2,
        15: -0.14972683625798562581422125276e+3
    },
)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1 / 8        # -1 / (error estimator order + 1)


def _combine(K, row):
    """sum_j a_j K[j] over a tableau row's nonzero {j: a_j}, per component."""
    d0 = d1 = 0.0
    for j, a in row.items():
        k0, k1 = K[j]
        d0 += k0 * a
        d1 += k1 * a
    return d0, d1


def _add_stages(rhs, K, t, y, h, stages):
    """Append the RHS at each stage to K; return the last stage's state."""
    for c, row in stages:
        d0, d1 = _combine(K, row)
        z = (y[0] + d0 * h, y[1] + d1 * h)
        K.append(rhs(t + c * h, z))
    return z


def _horner(F, x, y_old):
    """A step's order-7 interpolant at x = (t - t_old) / h from its
    coefficients F, summed in the order of scipy's Dop853DenseOutput; x and
    the entries of F and y_old are floats or arrays alike."""
    xs, y0, y1 = (x, 1.0 - x), 0.0, 0.0
    for i, (f0, f1) in enumerate(reversed(F)):
        y0 = (y0 + f0) * xs[i % 2]
        y1 = (y1 + f1) * xs[i % 2]
    return y0 + y_old[0], y1 + y_old[1]


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(rhs, t0, y0, f0, t_bound, direction, rtol, atol):
    """scipy's select_initial_step (Hairer, Norsett and Wanner, II.4) for an
    error estimator of order 7 and no step bound, in its numpy expressions."""
    interval_length = abs(t_bound - t0)
    y0, f0 = np.array(y0), np.array(f0)
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * direction * f0
    f1 = np.array(rhs(float(t0 + h0 * direction), tuple(y1.tolist())))
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return float(min(100 * h0, h1, interval_length))


def _float_fault(exc):
    fault = "overflow" if isinstance(exc, OverflowError) else "division by zero"
    return ODEFailure(f"ODE integration failed: float {fault} in the "
                      "right-hand side")


class FluxSolution:
    """A `solve_flux` solve: the step ends t and the states y (2 x len(t)),
    nfev and the dense output `sol`. A step's order-7 piece costs 3 more RHS
    evaluations, so it is built, and counted in nfev, only when something
    first evaluates that step."""

    def __init__(self, rhs):
        self.nfev, self._rhs = 0, rhs
        self._steps, self._pieces = [], {}  # (t_old, t, y_old, y, K) per step

    def _piece(self, k):
        """Step k's interpolant coefficients F, 7 (phi, m) pairs, built as
        scipy's DOP853 builds them, in floats."""
        F = self._pieces.get(k)
        if F is None:
            t_old, t, y_old, y, K = self._steps[k]
            h, K = t - t_old, K[:]
            _add_stages(self._rhs, K, t_old, y_old, h, _EXTRA)
            self.nfev += len(_EXTRA)
            dy = [v - u for u, v in zip(y_old, y)]
            F = [dy, [h * f - d for d, f in zip(dy, K[0])],
                 [2 * d - h * (f1 + f0) for d, f0, f1 in zip(dy, K[0], K[12])]]
            F += [[h * x for x in _combine(K, row)] for row in _D]
            self._pieces[k] = F
        return F

    def sol(self, t):
        """(phi, m) at t, a float or an array, each from the piece of the step
        that holds it: at a step end the step ending there and outside the
        span the end step, as scipy's OdeSolution picks. A float overflow or
        division by zero while building a piece is an ODEFailure."""
        t = np.asarray(t, dtype=float)
        s, n = t.reshape(-1), len(self._steps)
        if n == 0:      # a zero span
            return np.multiply.outer(self.y[:, 0], np.ones(t.shape))
        up = self.t[-1] >= self.t[0]
        k = np.clip(np.searchsorted(self.t if up else self.t[::-1], s,
                                    side="left" if up else "right") - 1, 0, n - 1)
        k = k if up else n - 1 - k
        steps, which = np.unique(k, return_inverse=True)
        try:
            F = np.array([self._piece(j) for j in steps.tolist()])[which]
        except (OverflowError, ZeroDivisionError) as exc:
            raise _float_fault(exc) from exc
        x = (s - self._t_old[k]) / self._h[k]
        y = _horner(F.transpose(1, 2, 0), x, self._y_old[k].T)
        return np.array(y).reshape((2,) + t.shape)

    def _finish(self, ts, ys):
        self.t, self.y = np.array(ts), np.array(ys).T
        self._t_old = np.array([st[0] for st in self._steps])
        self._h = np.array([st[1] for st in self._steps]) - self._t_old
        self._y_old = np.array([st[2] for st in self._steps]).reshape(-1, 2)
        return self


def _dop853(rhs, t0, y0, t_bound, rtol, atol, blowup):
    """solve_ivp(rhs, (t0, t_bound), y0, method="DOP853", dense_output=True)
    of scipy for a 2-state rhs on Python floats: scipy's initial step, then
    each step as scipy's DOP853 takes it (the E5/E3 error norm and its
    controller: safety 0.9, factors 0.2 to 10, exponent -1/8, the minimum
    step and the clamp to t_bound), summing each stage over its row's nonzero
    entries. The first step that ends with |phi| > blowup raises
    DivergenceError, naming that step's end."""
    sol = FluxSolution(rhs)
    y, t = (float(y0[0]), float(y0[1])), t0
    ts, ys = [t0], [y]
    f = rhs(t0, y)
    if t0 == t_bound:       # scipy's zero-span solve: one constant piece
        sol.nfev = 1
        return sol._finish([t0, t0], [y, y])
    direction = 1.0 if t_bound > t0 else -1.0
    h_abs = _initial_step(rhs, t0, y, f, t_bound, direction, rtol, atol)
    sol.nfev = 2            # f(t0) and the initial step's probe
    while direction * (t - t_bound) < 0:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise ODEFailure("ODE integration failed: Required step size "
                                 "is less than spacing between numbers.")
            if sol.nfev > _MAX_NFEV:
                raise ODEFailure(f"ODE integration failed: more than "
                                 f"{_MAX_NFEV} RHS evaluations")
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            K = [f]
            y_new = _add_stages(rhs, K, t, y, h, _STAGES)
            sol.nfev += len(_STAGES)
            err5 = err3 = 0.0
            for e5, e3, u, v in zip(_combine(K, _E5), _combine(K, _E3), y,
                                    y_new):
                scale = atol + max(abs(u), abs(v)) * rtol
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
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        sol._steps.append((t, t_new, y, y_new, K))
        t, y, f = t_new, y_new, K[-1]
        if abs(y[0]) > blowup:
            raise DivergenceError(f"|phi| exceeded {blowup:.3g} at r = {t:.6g}")
        ts.append(t)
        ys.append(y)
    return sol._finish(ts, ys)


def solve_flux(coefficients: Callable, p: float, r_span, y0,
               rtol: float, atol: float, drift: float = 0.0,
               blowup: float = math.inf) -> FluxSolution:
    """Integrate (A |phi'|^(p-2) phi')' + B |phi|^(p-2) phi = 0 over r_span
    for (phi, m), m = A |phi'|^(p-2) phi', by DOP853 with dense output
    (`_dop853`); r -> (A(r), B(r)) are the coefficients, and a drift d adds
    d phi to phi' and -d m to m'. The first step that ends with |phi| >
    blowup is a DivergenceError, and a float overflow or division by zero in
    the RHS is an ODEFailure."""
    inv, q = 1.0 / (p - 1.0), p - 2.0

    def rhs(r, y):
        phi, m = y
        A, B = coefficients(r)
        w = m / A
        return (math.copysign(abs(w) ** inv, w) + drift * phi,
                -drift * m - B * abs(phi) ** q * phi)

    try:
        return _dop853(rhs, float(r_span[0]), y0, float(r_span[1]), rtol,
                       atol, blowup)
    except (OverflowError, ZeroDivisionError) as exc:
        raise _float_fault(exc) from exc


def integrate_bessel_ode(pair: RadialWeightPair, exponents: Exponents,
                         r0: float, y0: tuple[float, float], r_end: float,
                         zero_order: Callable | None = None,
                         blowup: float = _BLOWUP) -> Callable:
    """Integrate the flux system from (phi, m)(r0) = y0 to r_end (either
    direction) and return its dense output r -> (phi, m); a zeroth-order
    numerator weight z makes the coefficient (lam W - z) r^mu. The first step
    that ends with |phi| > blowup raises DivergenceError, naming its r."""
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

    return solve_flux(coefficients, p, (r0, r_end), y0, _RTOL, _ATOL,
                      blowup=blowup).sol


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

    grid = np.geomspace(r0, r1, _GRID_N)
    # a term that overflows makes its residual NaN or inf, which fails the
    # certificate; a coefficient that does fails the solve, so it ends here
    with np.errstate(over="ignore", invalid="ignore"):
        rm = grid ** mu
        finite = np.isfinite(rm * pair.V(grid)) & np.isfinite(rm * pair.W(grid))
        max_resid = float(np.max(residual(grid)))
    if not finite.all():
        raise ODEFailure(
            "ODE integration failed: the coefficients V r^mu and W r^mu are "
            f"not finite from r = {grid[~finite][0]:.6g}")

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
