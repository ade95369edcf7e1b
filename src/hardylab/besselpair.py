"""Bessel pairs certified by the integrated flux identity, and the flux
system solve of `spectral`.

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

`solve_flux` integrates the annulus eigenfunction of `spectral`, the flux
system in t = ln r with constant coefficients and a constant drift. It steps
by DOP853 in Python floats, with the tableau, initial step, step control and
dense output of scipy's `solve_ivp`, and imports no scipy; the stage sums
are straight-line code generated at import from the tableau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .profiles import Profile
from .quadrature import QuadratureError, integrate_batch
from .scenarios import (CheckFailure, RadialWeightPair, Scenario,
                        closed_form_maximizer)

__all__ = [
    "BesselCertificate",
    "ODEFailure",
    "FluxSolution",
    "solve_flux",
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
# RHS budget of one solve; the largest legitimate solve seen needs ~4e4
_MAX_NFEV = 1_000_000


class ODEFailure(CheckFailure):
    """The flux ODE could not be integrated, or its coefficients could not
    be evaluated, across the requested range."""


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


def _generate(name, lines, result):
    """Compile `name(y0, y1, h, K, A, B, inv, q, d)` from its body's lines."""
    body = "".join(f"    {x}\n" for x in lines + [f"return {result}"])
    namespace = {"copysign": math.copysign}
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
# the three extra stages of a step's dense piece, then its rows h sum D K
_dense = _generate(
    "dense", [f"{_K13} = K"] + _stage_lines(_EXTRA, len(_STAGES) + 1),
    ", ".join(f"(h * ({_sum(row, 0)}), h * ({_sum(row, 1)}))" for row in _D))


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


def _initial_step(slope, t0, y0, f0, t_bound, direction, rtol, atol):
    """scipy's select_initial_step (Hairer, Norsett and Wanner, II.4) for an
    error estimator of order 7 and no step bound, in its numpy expressions;
    the RHS `slope` is autonomous."""
    interval_length = abs(t_bound - t0)
    y0, f0 = np.array(y0), np.array(f0)
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * direction * f0
    f1 = np.array(slope(tuple(y1.tolist())))
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
    first evaluates that step. `consts` are the RHS constants (A, B,
    1/(p-1), p-2, drift) of the generated code."""

    def __init__(self, consts):
        self.nfev, self._consts = 0, consts
        self._steps, self._pieces = [], {}      # (t_old, t, y_old, y, K)

    def _piece(self, k):
        """Step k's interpolant coefficients F, 7 (phi, m) pairs, built as
        scipy's DOP853 builds them, in floats."""
        F = self._pieces.get(k)
        if F is None:
            t_old, t, y_old, y, K = self._steps[k]
            h = t - t_old
            dy = [v - u for u, v in zip(y_old, y)]
            F = [dy, [h * f - d for d, f in zip(dy, K[:2])],
                 [2 * d - h * (f1 + f0) for d, f0, f1 in zip(dy, K[:2], K[-2:])]]
            F += _dense(*y_old, h, K, *self._consts)
            self.nfev += len(_EXTRA)
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


def _dop853(A, B, p, drift, t0, y0, t_bound, rtol, atol):
    """solve_ivp(rhs, (t0, t_bound), y0, method="DOP853", dense_output=True)
    of scipy for solve_flux's RHS on Python floats: scipy's initial step,
    then each step as scipy's DOP853 takes it (the E5/E3 error norm and its
    controller: safety 0.9, factors 0.2 to 10, exponent -1/8, the minimum
    step and the clamp to t_bound), summing each stage over its row's nonzero
    entries."""
    consts = (A, B, 1.0 / (p - 1.0), p - 2.0, drift)

    def slope(y):
        return _slope(*y, 0.0, (), *consts)

    sol = FluxSolution(consts)
    y, t = (float(y0[0]), float(y0[1])), t0
    ts, ys = [t0], [y]
    f = slope(y)
    if t0 == t_bound:       # scipy's zero-span solve: one constant piece
        sol.nfev = 1
        return sol._finish([t0, t0], [y, y])
    direction = 1.0 if t_bound > t0 else -1.0
    h_abs = _initial_step(slope, t0, y, f, t_bound, direction, rtol, atol)
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
            K, y_new, e5s, e3s = _step(*y, h, f, *consts)
            sol.nfev += len(_STAGES)
            err5 = err3 = 0.0
            for e5, e3, u, v in zip(e5s, e3s, y, y_new):
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
        t, y, f = t_new, y_new, K[-2:]
        ts.append(t)
        ys.append(y)
    return sol._finish(ts, ys)


def solve_flux(A: float, B: float, p: float, span, y0, rtol: float,
               atol: float, drift: float = 0.0) -> FluxSolution:
    """Integrate (A |phi'|^(p-2) phi')' + B |phi|^(p-2) phi = 0 with constant
    A and B over span for (phi, m), m = A |phi'|^(p-2) phi', by DOP853 with
    dense output (`_dop853`); a drift d adds d phi to phi' and -d m to m'.
    A float overflow or division by zero in the RHS is an ODEFailure."""
    try:
        return _dop853(float(A), float(B), p, drift, float(span[0]), y0,
                       float(span[1]), rtol, atol)
    except (OverflowError, ZeroDivisionError) as exc:
        raise _float_fault(exc) from exc


def _first_nonpositive(a: Callable, r0: float, r1: float) -> float | None:
    """The first r from r0 towards r1 where a(r) <= 0 on a 64-point
    geometric probe, refined by bisection down to adjacent floats; None
    when a > 0 (or NaN) at every probe point."""
    probe = np.geomspace(r0, r1, 64)
    bad = np.flatnonzero(a(probe) <= 0.0)
    if not bad.size:
        return None
    i = int(bad[0])
    if i == 0:
        return r0
    good, first = float(probe[i - 1]), float(probe[i])
    while (mid := 0.5 * (good + first)) not in (good, first):
        good, first = (good, mid) if a(np.array([mid]))[0] <= 0.0 else (mid, first)
    return first


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
    path, or a failed integral ends the check in a CheckFailure."""
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
            "ODE integration failed: the coefficients V r^mu and W r^mu are "
            f"not finite from r = {grid[~finite][0]:.6g}")

    def flux_weight(r):
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            return pair.V(r) * r ** mu

    r = _first_nonpositive(flux_weight, r0, r1)
    if r is not None:
        a = float(flux_weight(np.array([r]))[0])
        raise ODEFailure(
            f"V r^mu reads {a!r} from r = {r:.6g} on the integration path"
            + (" (V vanishes there, or V > 0 underflows)" if a == 0.0 else ""))

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
    ests = integrate_batch(integrand, np.tile(edges[:-1], 2),
                           np.tile(edges[1:], 2), [False] * n, [False] * n,
                           [[]] * n, tol=0.0, rel_tol=_FLUX_RTOL)
    for est in ests:
        if isinstance(est, QuadratureError):
            raise est
    integral = np.array([e.value for e in ests]).reshape(2, _INTERVALS)
    bound = np.array([e.error_estimate for e in ests]).reshape(2, _INTERVALS)
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
