"""Concrete gauge geometries and direct multi-dimensional verification.

Each model is its layer data (`GaugeModel`), from which one code path gives
its homogeneous gauge d, the horizontal-gradient magnitude |grad_L d| and the
field matrix sigma(x); Q and the dilation exponents are declared. Gauge-ball
integrals are bi-radial quadratures: they check the scaling law Phi_alpha(R)
= lambda_alpha R^Q against the closed-form ball constant and the directional
Rayleigh quotient of a d-radial profile against its 1-D coarea reduction; the
ordered-sector quotient uses exact sphere moments. Each verdict holds within
_GAUGE_K error bounds of its integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .profiles import Profile, smooth_bump
from .scenarios import (DEFAULT_SEED, ParameterDomainError, Scenario,
                        closed_form_maximizer, scenario_catalog)

__all__ = [
    "GaugeModel",
    "UnsupportedModelError",
    "euclidean",
    "grushin",
    "greiner",
    "cylindrical_split",
    "gauge_gradient_fd_error",
    "homogeneity_error",
    "cylindrical_orthogonality_error",
    "measure_homogeneity_check",
    "strip_quotient", "bound_verdict",
    "vandermonde_checks",
    "direct_rayleigh",
    "DEFAULT_SEED",
]

_HOMOGENEITY_SAMPLES = 1000
_ORTHOGONALITY_SAMPLES = 200
_CHECK_POINTS = 200       # harmonicity test points
_STRIP_TOL = 1e-13        # relative target of each strip integral
_GAUGE_RTOL = 1e-13       # relative target of each ball, sector and reduced integral
_GAUGE_K = 10.0           # a gauge verdict's reach, in error bounds
_MOMENT_TOL = 1e-12       # the exact sphere moments' rounding


def _radius(cols: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row; a single column is its absolute value,
    which is what sqrt(x * x) rounds to in binary64 barring under/overflow."""
    if cols.shape[1] == 1:
        return np.abs(cols[:, 0])
    return np.linalg.norm(cols, axis=1)


class UnsupportedModelError(ParameterDomainError):
    """Operation undefined for this gauge model (e.g. unbounded gauge balls)."""


def _sphere_area(m: int) -> float:
    """|S^(m-1)|; |S^0| = 2."""
    return 2.0 * math.pi ** (m / 2.0) / math.gamma(m / 2.0)


@dataclass(frozen=True)
class GaugeModel:
    """A homogeneous gauge given by its two layers: rho and s are the radii
    of the first h1 and the next h2 coordinates, d = (rho^a + s^2)^(1/a) (d =
    rho where h2 = 0) and |grad_L d| = (rho/d)^kappa, the form D'Ambrosio
    uses for Grushin and Heisenberg-Greiner gauges (Ann. Sc. Norm. Super.
    Pisa (5) 4, 2005); kappa = a/2 - 1 is declared, and the gradient check
    tests it. The h horizontal fields are the first h coordinate fields, the
    second layer's times (a/2) rho^kappa where it is horizontal (h > h1), or
    the first layer's twisted by (a/2) rho^(kappa-1) (y_i, -x_i) d_t where it
    is the vertical t (h = h1). Q and the dilation exponents are declared
    too, as `measure_homogeneity_check` and `homogeneity_error` check them;
    kind and params only label reports."""
    kind: str                    # euclidean | grushin | greiner | cylindrical_split
    dims: int
    h: int                       # number of horizontal fields
    h1: int
    h2: int
    a: float
    kappa: float
    Q: float
    dilation_exponents: tuple[float, ...]
    params: dict = field(default_factory=dict)

    def _finite(self, values: np.ndarray, name: str) -> np.ndarray:
        """values, or a ParameterDomainError where a power of rho left the
        float range."""
        if not np.all(np.isfinite(values)):
            at = ", ".join(f"{k} = {v!r}" for k, v in self.params.items())
            raise ParameterDomainError(
                f"{self.kind} gauge {name} is not finite at {at}")
        return values

    def _layers(self, pts: np.ndarray):
        """One pass over the points: the gauge d and the first-layer radius."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        rho = _radius(pts[:, :self.h1])
        if not self.h2:
            return rho, rho
        s = _radius(pts[:, self.h1:self.h1 + self.h2])
        with np.errstate(over="ignore"):
            d = (rho ** self.a + s ** 2) ** (1.0 / self.a)
        return self._finite(d, "d"), rho

    def gauge(self, pts: np.ndarray) -> np.ndarray:
        return self._layers(pts)[0]

    def grad_gauge_mag(self, pts: np.ndarray) -> np.ndarray:
        d, rho = self._layers(pts)
        with np.errstate(invalid="ignore"):     # 0/0 at the origin
            return (rho / d) ** self.kappa

    def sigma(self, pts: np.ndarray) -> np.ndarray:
        """Field matrix sigma(x) of shape (npts, h, dims)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        h1, h2 = self.h1, self.h2
        out = np.repeat(np.eye(self.h, self.dims)[None], pts.shape[0], axis=0)
        if not h2:
            return out
        rho = _radius(pts[:, :h1])
        with np.errstate(over="ignore", invalid="ignore"):
            if self.h > h1:     # layer two horizontal
                layer = np.arange(h1, h1 + h2)
                scale = 0.5 * self.a * rho ** self.kappa
                out[:, layer, layer] = scale[:, None]
            else:               # layer two the vertical t
                n, twist = h1 // 2, 0.5 * self.a * rho ** (self.kappa - 1.0)
                out[:, :n, -1] = twist[:, None] * pts[:, n:h1]
                out[:, n:h1, -1] = -twist[:, None] * pts[:, :n]
        return self._finite(out, "sigma")

    def bilayer(self) -> tuple[int, int, float, float]:
        """(h1, h2, a, kappa) of a model whose gauge balls are bounded."""
        if self.h1 + self.h2 < self.dims:
            raise UnsupportedModelError("cylindrical gauge balls are unbounded")
        return self.h1, self.h2, self.a, self.kappa

    def ball_constant(self, alpha: float) -> float:
        """lambda_alpha in Phi_alpha(R) = int_{d<R} |grad_L d|^alpha dx =
        lambda_alpha R^Q: rho^a = d^a v in the bi-radial integral gives
        |S^(h1-1)| |S^(h2-1)| / (2Q) B((h1 + alpha kappa)/a, h2/2)."""
        h1, h2, a, kappa = self.bilayer()
        if not h2:
            return _sphere_area(h1) / self.Q
        x, y = (h1 + alpha * kappa) / a, h2 / 2.0
        beta = math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))
        return _sphere_area(h1) * _sphere_area(h2) / (2.0 * self.Q) * beta


def euclidean(N: int) -> GaugeModel:
    if N < 1:
        raise ParameterDomainError(f"need N >= 1, got {N}")
    return GaugeModel("euclidean", N, N, N, 0, 2.0, 0.0, float(N), (1.0,) * N,
                      {"N": N})


def grushin(n: int, k: int, gamma: float) -> GaugeModel:
    if not (gamma >= 0 and math.isfinite(gamma)):
        raise ParameterDomainError(f"gamma must be >= 0 and finite, got {gamma}")
    if n < 1 or k < 0:
        raise ParameterDomainError(f"grushin needs n >= 1, k >= 0, got ({n}, {k})")
    Q = n + (1.0 + gamma) * k
    exps = (1.0,) * n + (1.0 + gamma,) * k
    return GaugeModel("grushin", n + k, n + k, n, k, 2.0 + 2.0 * gamma, gamma,
                      Q, exps, {"n": n, "k": k, "gamma": gamma})


def greiner(n: int, gamma: float) -> GaugeModel:
    if not (gamma >= 1 and math.isfinite(gamma)):
        raise ParameterDomainError(f"gamma must be >= 1 and finite, got {gamma}")
    if n < 1:
        raise ParameterDomainError(f"greiner needs n >= 1, got {n}")
    Q = 2.0 * n + 2.0 * gamma
    exps = (1.0,) * (2 * n) + (2.0 * gamma,)
    return GaugeModel("greiner", 2 * n + 1, 2 * n, 2 * n, 1, 4.0 * gamma,
                      2.0 * gamma - 1.0, Q, exps, {"n": n, "gamma": gamma})


def cylindrical_split(m: int, N: int) -> GaugeModel:
    if not 1 <= m <= N:
        raise ParameterDomainError(f"need 1 <= m <= N, got m={m}, N={N}")
    return GaugeModel("cylindrical_split", N, N, m, 0, 2.0, 0.0, float(N),
                      (1.0,) * N, {"m": m, "N": N})


def _fd_axes(func, pts: np.ndarray, stencil, power: int) -> np.ndarray:
    """4th-order central differences along each coordinate j, with steps
    h = 1e-3 (1 + |x_j|): column j sums c func(x + s h e_j) over the (c, s)
    of the stencil, divided by 12 h^power."""
    pts = np.atleast_2d(pts)
    out = np.zeros_like(pts)
    for j in range(pts.shape[1]):
        h = 1e-3 * (1.0 + np.abs(pts[:, j]))
        for c, s in stencil:
            shifted = pts.copy()
            shifted[:, j] += s * h
            out[:, j] += c * func(shifted)
        out[:, j] /= 12.0 * h ** power
    return out


def gauge_gradient_fd_error(model: GaugeModel, pts: np.ndarray) -> float:
    """Max relative mismatch between |sigma grad d| from finite differences
    and the closed form, away from singular sets."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    grad = _fd_axes(model.gauge, pts, ((1.0, -2.0), (-8.0, -1.0), (8.0, 1.0),
                                       (-1.0, 2.0)), 1)
    sig = model.sigma(pts)
    horizontal = np.einsum("nhd,nd->nh", sig, grad)
    fd_mag = np.linalg.norm(horizontal, axis=1)
    closed = model.grad_gauge_mag(pts)
    return float(np.max(np.abs(fd_mag - closed) / (np.abs(closed) + 1e-12)))


def homogeneity_error(model: GaugeModel, seed: int = DEFAULT_SEED) -> float:
    """Max relative defect of d(delta_lam x) = lam d(x) over random points."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-2.0, 2.0, size=(_HOMOGENEITY_SAMPLES, model.dims))
    lam = rng.uniform(0.1, 10.0, size=_HOMOGENEITY_SAMPLES)
    d = model.gauge(pts)
    keep = d > 1e-9
    exps = np.asarray(model.dilation_exponents)
    scaled = pts[keep] * lam[keep, None] ** exps[None, :]
    d_scaled = model.gauge(scaled)
    return float(np.max(np.abs(d_scaled - lam[keep] * d[keep])
                        / (lam[keep] * d[keep])))


def cylindrical_orthogonality_error(model: GaugeModel,
                                    seed: int = DEFAULT_SEED) -> float:
    """For the Greiner family: the horizontal derivative of the vertical
    radius |t| is orthogonal to the first-layer direction (z/|z|, 0); the
    quantity x.(sigma_1 y) vanishes identically."""
    if not model.h < model.dims:
        raise UnsupportedModelError("orthogonality check targets a vertical layer")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.2, 2.0, size=(_ORTHOGONALITY_SAMPLES, model.dims)) \
        * rng.choice([-1.0, 1.0], size=(_ORTHOGONALITY_SAMPLES, model.dims))
    sig = model.sigma(pts)
    vertical = np.sign(pts[:, -1])[:, None] * sig[:, :, -1]   # grad_L |t|
    z = pts[:, :model.h]
    direction = z / np.linalg.norm(z, axis=1, keepdims=True)
    dots = np.einsum("nh,nh->n", vertical, direction)
    return float(np.max(np.abs(dots)))


def _ball_integrals(model: GaugeModel, radii, weight):
    """Value and error bound of each Phi_k = int_{d < radii[k]}
    weight(d, |grad_L d|, k) dx. In the radii rho, s of the two layers
    (`GaugeModel.bilayer`), dx = |S^(h1-1)| |S^(h2-1)| rho^(h1-1) s^(h2-1)
    drho ds; s = rho^(a/2) sinh u, in L = log cosh u = u + log1p(e^(-2u)) -
    ln 2, gives d = rho e^(2L/a), s^(h2-1) ds/du = d^(a h2/2) tanh(u)^(h2-1)
    (tanh^2 = 1 - e^(-2L)) and |grad_L d| = e^(-2 kappa L/a): every term
    stays finite where cosh u overflows (u past 710 at the outer nodes near
    rho = 0 once a passes about 78), and is smooth where (rho/d)^kappa
    peaks at s = 0. So Phi_k = |S^(h1-1)| |S^(h2-1)| int_0^R rho^(h1-1) J_k
    drho, with J_k = int_0^U d^(a h2/2) tanh(u)^(h2-1) weight du, sinh U =
    sqrt((R/rho)^a - 1): the J_k at an outer sweep's nodes are the owners of
    one integrate_batch call. Near rho = R, J_k covers a sliver of d that
    the weight resolves only to d's rounding, so its target is absolute,
    _GAUGE_RTOL times the least mean of the J_k over rho^(h1-1) drho from a
    first pass at 1e-3; for a weight of one sign they add at most 2
    _GAUGE_RTOL |Phi_k| to the outer error, floored at _GAUGE_RTOL |Phi_k|.
    """
    from .quadrature import integrate_batch

    h1, h2, a, kappa = model.bilayer()
    radii = np.asarray(radii, dtype=float)
    n = radii.size

    def integrals(inner_tol, rel_tol):
        def outer(rho, owner):
            r, k = rho.ravel(), owner.repeat(rho.shape[1])
            if not h2:      # d = rho and |grad_L d| = 1
                return r ** (h1 - 1.0) * weight(r, 1.0, k)
            x = a * np.log1p((radii[k] - r) / r)      # ln (R/rho)^a
            U = 0.5 * x + np.log1p(np.sqrt(-np.expm1(-x)))   # asinh sqrt(e^x - 1)

            def inner(u, o):
                L = u + np.log1p(np.exp(-2.0 * u)) - math.log(2.0)
                d = r[o, None] * np.exp(2.0 / a * L)
                return d ** (0.5 * a * h2) * np.tanh(u) ** (h2 - 1) * weight(
                    d, np.exp(-2.0 * kappa / a * L), k[o, None])

            return r ** (h1 - 1.0) * integrate_batch(
                inner, np.zeros(r.size), U, tol=inner_tol,
                rel_tol=rel_tol).value

        return integrate_batch(outer, np.zeros(n), radii, [True] * n,
                               [True] * n, tol=0.0, rel_tol=rel_tol)

    with np.errstate(over="ignore"):    # an R^h1 past the float range
        mean_J = np.min(abs(integrals(0.0, 1e-3).value) * h1 / radii ** h1) if h2 else 0
    est = integrals(_GAUGE_RTOL * mean_J, _GAUGE_RTOL)
    area = _sphere_area(h1) * (_sphere_area(h2) if h2 else 1.0)
    floor = _GAUGE_RTOL * np.abs(area * est.value)
    return area * est.value, np.maximum(area * est.error_estimate,
                                        floor) + 2.0 * floor


def _against_reduced(value, bounds, reduced: float):
    """(quotient, error bound, pass) of num/den, from the values and bounds
    of the two integrals, against the reduced quotient, which meets the same
    relative target (so 2 _GAUGE_RTOL on integrands of one sign): within
    _GAUGE_K times both bounds. den <= 0 gives +inf, as in the reduction."""
    (num, den), (dnum, dden) = value.tolist(), bounds.tolist()
    if not den > 0.0:
        return math.inf, math.nan, reduced == math.inf
    quotient = num / den
    bound = (dnum + quotient * dden) / den + 2.0 * _GAUGE_RTOL * abs(reduced)
    return quotient, bound, bool(abs(quotient - reduced) <= _GAUGE_K * bound)


def measure_homogeneity_check(model: GaugeModel, alpha: float, R1: float,
                              R2: float, samples: int,
                              seed: int = DEFAULT_SEED) -> dict:
    """The gauge-ball scaling law Phi_alpha(R) = int_{d<R} |grad_L d|^alpha
    dx = lambda_alpha R^Q: Phi_alpha at R1 and R2, from one
    `_ball_integrals` call, must each lie within _GAUGE_K error bounds of
    `GaugeModel.ball_constant`(alpha) R^Q. Reports their ratio with its
    error bound against (R2/R1)^Q. samples and seed are ignored, and kept
    because the benchmark binds them."""
    if not (alpha >= 0 and math.isfinite(alpha)):
        raise ParameterDomainError(f"alpha must be >= 0 and finite, got {alpha}")
    if not (0 < R1 <= R2 and math.isfinite(R2)):
        raise ParameterDomainError(
            f"need finite radii 0 < R1 <= R2, got {R1}, {R2}")
    with np.errstate(over="ignore", under="ignore"):
        scale = np.array([R1, R2]) ** model.Q
        expected = float((R2 / R1) ** np.float64(model.Q))
    if not (scale[0] >= np.finfo(float).tiny and max(expected, scale[1]) < np.inf):
        raise ParameterDomainError(f"R1^Q, R2^Q or (R2/R1)^Q leaves the normal "
                                   f"floats at R1 = {R1}, R2 = {R2}")
    lam = model.ball_constant(alpha)
    phi, bound = _ball_integrals(model, [R1, R2], lambda d, g, k: g ** alpha)
    ratio = float(phi[1] / phi[0])
    return {"ratio": ratio, "expected": expected, "lambda_alpha": lam,
            "error_bound": ratio * float(bound[0] / phi[0] + bound[1] / phi[1]),
            "ball_integrals": phi.tolist(),
            "pass": bool(np.all(np.abs(phi - lam * scale) <= _GAUGE_K * bound))}


# -- strip ------------------------------------------------------------------

def strip_quotient(theta: float, epsilon: float) -> float:
    """Directional Rayleigh quotient on the strip (-pi/2, pi/2) x R for the
    gauge e^y cos x, evaluated on the truncated maximizer

        u = cos(x)^(theta-1/2) f_eps(x) e^((theta-1/2) y) eta(y).

    u and both weights split into an x-factor times a y-factor, so the
    quotient is a ratio of 1-D integrals. They are written in the offset
    s = pi/2 - |x|, where cos x = sin s and the knots of f = f_eps
    (`strip_cutoff`) are exact, so nothing cancels as eps -> 0, and in
    cancelled form, so no power of cos x depends on theta. With
    g = sin s f_x' - (theta-1/2) cos s f the x-integrals over [s_out, pi/2] are

        X1 = int cos^2 s g^2 / sin s,    X2 = int cos s sin s f g,
        X3 = int sin^3 s f^2,            X4 = int f^2 / sin s,

    and the y-integrals over [-1, 1] are Y1 = int e^y eta^2 and
    Z = int e^y eta'^2; the other two y-factors follow by parts, since eta
    vanishes at +-1, as (theta-1) Y1 and (theta-1/2)(theta-3/2) Y1 + Z. So

        q = [X1 - 2 (theta-1) X2 + X3 ((theta-1/2)(theta-3/2) + Z/Y1)] / X4.

    The six integrals are the owners of one `integrate_batch` call, each
    evaluated on its own nodes only; the first that fails raises its
    `QuadratureError`. theta - 1/2 enters them over the power of two m that
    brings it into (-1, 1), so no integrand squares a large theta; as m
    scales exactly, q is the float the unscaled integrals give wherever
    they are finite. A theta whose bound overflows is a ParameterDomainError.
    """
    from .quadrature import integrate_batch
    from .sharpness import strip_cutoff

    if not math.isfinite(theta):
        raise ParameterDomainError(f"theta must be finite, got {theta}")
    if not math.isfinite(bound_verdict("strip", 0.0, theta)[0]):
        raise ParameterDomainError(
            f"theta = {theta!r} overflows the strip bound ((2 theta - 1)/2)^2")
    f = strip_cutoff(epsilon)
    eta = smooth_bump(0.0, 1.0)     # vertical truncation on [-1, 1]
    m = 2.0 ** max(0, math.frexp(theta - 0.5)[1])
    sig = (theta - 0.5) / m

    def g(s):   # f' is d/ds = -d/dx; g / m
        return -(np.sin(s) * f.derivative(s) / m + sig * np.cos(s) * f.value(s))

    terms = (lambda s: np.cos(s) ** 2 * g(s) ** 2 / np.sin(s),
             lambda s: np.cos(s) * np.sin(s) * f.value(s) * g(s),
             lambda s: np.sin(s) ** 3 * f.value(s) ** 2,
             lambda s: f.value(s) ** 2 / np.sin(s),
             lambda y: np.exp(y) * eta.value(y) ** 2,
             lambda y: np.exp(y) * eta.derivative(y) ** 2)

    def integrand(x, owner):
        out = np.empty_like(x)
        for k, term in enumerate(terms):
            rows = owner == k
            out[rows] = term(x[rows])
        return out

    (lo, hi), inner = f.support, [f.knots[1]]
    X1, X2, X3, X4, Y1, Z = integrate_batch(
        integrand, [lo] * 4 + [-1.0] * 2, [hi] * 4 + [1.0] * 2,
        points=[inner] * 4 + [[math.nan]] * 2, tol=0.0,
        rel_tol=_STRIP_TOL).value.tolist()
    return (X1 - 2.0 * ((theta - 1.0) / m) * X2
            + X3 * (sig * ((theta - 1.5) / m) + Z / Y1 / m / m)) / X4 * m * m


def bound_verdict(check: str, value: float, theta: float = 1.0):
    """(expected, pass) of a one-float check: the strip quotient clears
    e = ((2 theta - 1)/2)^2 less 1e-9 max(1, e), like a sweep row, so the
    slack outgrows e's float spacing; a gradient's FD error is <= 1e-6,
    others 1e-12."""
    if check == "strip":
        try:
            expected = ((2.0 * theta - 1.0) / 2.0) ** 2
        except OverflowError:
            expected = math.inf
        return expected, value >= expected - 1e-9 * max(1.0, expected)
    return 0.0, value <= (1e-6 if check == "gradient" else 1e-12)


# -- Vandermonde sector -----------------------------------------------------

def vandermonde(pts: np.ndarray) -> np.ndarray:
    """prod_{i<j} (x_j - x_i) over the last axis, in the order of (i, j)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    N = pts.shape[1]
    return np.prod([pts[:, j] - pts[:, i] for i in range(N)
                    for j in range(i + 1, N)], axis=0)


def vandermonde_gradient(pts: np.ndarray) -> np.ndarray:
    """grad of the pair-difference product by the product rule: no
    division, so it holds where coordinates coincide."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    N = pts.shape[1]
    diffs = {(i, j): pts[:, j] - pts[:, i] for j in range(N) for i in range(j)}
    grad = np.zeros_like(pts)
    for i, j in diffs:
        rest = np.prod([v for key, v in diffs.items() if key != (i, j)], axis=0)
        grad[:, j] += rest
        grad[:, i] -= rest
    return grad


def _sphere_moment_ratios(N: int, kappa: int) -> tuple[float, float]:
    """C/A and B/A of the sphere integrals A = int nu^2, C = int nu x.grad nu
    and B = int |grad nu|^2 of the pair-difference product nu (the ordered
    sector holds 1/N! of each). For P homogeneous of degree m, int_{R^N} P
    e^(-|x|^2) dx = Gamma((N + m)/2)/2 int_{S^(N-1)} P; the integrands have
    degree at most 2N - 2 in each coordinate, so the tensor Gauss-Hermite
    rule with kappa + 2 nodes per axis (Golub & Welsch, Math. Comp. 23,
    1969) is exact up to rounding. B's Gamma factor is A's over (N + 2 kappa
    - 2)/2."""
    from numpy.polynomial.hermite import hermgauss

    nodes, weights = hermgauss(kappa + 2)
    x = np.stack(np.meshgrid(*[nodes] * N, indexing="ij"), -1).reshape(-1, N)
    w = np.prod(np.meshgrid(*[weights] * N, indexing="ij"), axis=0).ravel()
    nu, grad = vandermonde(x), vandermonde_gradient(x)
    A = w @ (nu * nu)
    return (float(w @ (nu * np.sum(x * grad, axis=1)) / A),
            float(w @ np.sum(grad * grad, axis=1) / A * (N + 2 * kappa - 2) / 2))


def vandermonde_checks(N: int, theta: float, mc_samples: int,
                       seed: int = DEFAULT_SEED, epsilon: float = 1e-2) -> dict:
    """Harmonicity, sphere moments and the sector Rayleigh quotient of the
    ordered-coordinate domain, for u = F(r) nu, F = r^-a g_eps and
    a = (N^2 - 2 theta)/2. As |grad u|^2 = F'^2 nu^2 + 2 F F' nu (x.grad
    nu)/r + F^2 |grad nu|^2 with nu of degree kappa = N(N-1)/2, the
    quotient is int r (P^2 + 2 (C/A) G P + (B/A) G^2) dr / int g G dr, G =
    g/r, P = g' - a G (the powers of r cancel as N + 2 kappa = N^2), with
    the moment ratios of `_sphere_moment_ratios`. Free of Euler's relation
    and harmonicity, it checks the `antisymmetric` reduced quotient of the
    same profile (`_against_reduced`). C/A = kappa and B/A = kappa^2 + the
    sphere eigenvalue must hold to _MOMENT_TOL, and the FD Laplacian of nu
    must vanish. mc_samples is ignored, and kept as the benchmark binds it.
    """
    from .functional import reduce_radial_functional
    from .quadrature import integrate_batch
    from .sharpness import plateau_cutoff

    if N not in (2, 3, 4):
        raise ParameterDomainError(f"desk scale: N in {{2,3,4}}, got {N}")
    sector = scenario_catalog("antisymmetric", N=N, theta=theta)
    g = plateau_cutoff(epsilon)
    reduced = reduce_radial_functional(sector, closed_form_maximizer(sector) * g,
                                       _GAUGE_RTOL).quotient
    kappa = sector.extra["vandermonde_degree"]
    radial = kappa * kappa + sector.extra["sphere_eigenvalue"]

    # nu has degree N-1 in each coordinate: the 4th-order stencil is exact
    terms = _fd_axes(vandermonde, np.random.default_rng(seed).uniform(
        -2.0, 2.0, size=(_CHECK_POINTS, N)), ((-30.0, 0.0), (-1.0, -2.0),
        (16.0, -1.0), (16.0, 1.0), (-1.0, 2.0)), 2)
    harmonicity_residual = float(np.max(np.abs(terms.sum(axis=1)) / np.maximum(
        np.abs(terms).max(axis=1), 1.0)))
    CA, BA = _sphere_moment_ratios(N, int(kappa))
    sphere_residual = max(abs(CA - kappa) / kappa, abs(BA - radial) / radial)
    a = (N * N - 2.0 * theta) / 2.0

    def integrand(r, owner):
        G = g.value(r) / r
        P = g.derivative(r) - a * G
        return np.where(owner[:, None] == 0,
                        r * (P * P + 2.0 * CA * G * P + BA * G * G),
                        g.value(r) * G)

    est = integrate_batch(integrand, [g.support[0]] * 2, [g.support[1]] * 2,
                          points=[g.knots[1:-1]] * 2, tol=0.0,
                          rel_tol=_GAUGE_RTOL)
    quotient, bound, ok = _against_reduced(est.value, np.maximum(
        est.error_estimate, _GAUGE_RTOL * np.abs(est.value)), reduced)
    return {"harmonicity_residual": harmonicity_residual,
            "sphere_eigvalue_residual": sphere_residual,
            "rayleigh_quotient": quotient, "error_bound": bound,
            "expected_sphere_eigenvalue": sector.extra["sphere_eigenvalue"],
            "expected_constant": sector.sharp_constant,
            "reduced_quotient": reduced, "pass": bool(
                harmonicity_residual <= 1e-6 and ok
                and sphere_residual <= _MOMENT_TOL)}


# -- direct multi-dimensional Rayleigh --------------------------------------

def direct_rayleigh(model: GaugeModel, scenario: Scenario, profile: Profile,
                    mc_samples: int, seed: int = DEFAULT_SEED) -> dict:
    """The directional quotient

        int V(d) |grad_L u . grad_L d / |grad_L d||^p dx
        ---------------------------------------------------
        int W(d) |u|^p |grad_L d|^p dx

    of u = profile(d), whose directional derivative is profile'(d)
    |grad_L d|, by one `_ball_integrals` call, against its 1-D coarea
    reduction (`_against_reduced`; a W that changes sign must not cancel
    the denominator). mc_samples and seed are ignored, and kept as the
    benchmark binds them.
    """
    from .functional import reduce_radial_functional

    if model.dims > 4:
        raise UnsupportedModelError("desk scale: model dimension must be <= 4")
    if abs(model.Q - scenario.exponents.Q) > 1e-9:
        raise ParameterDomainError(
            f"scenario Q={scenario.exponents.Q} does not match model Q={model.Q}")
    p = scenario.exponents.p
    hi = min(profile.support[1], scenario.pair.interval[1])
    if not (max(profile.support[0], scenario.pair.interval[0]) < hi
            and math.isfinite(hi)):
        raise ParameterDomainError("profile support must be a bounded shell")
    reduced = reduce_radial_functional(scenario, profile, _GAUGE_RTOL)

    def weight(d, grad, k):
        return np.where(k == 0, scenario.pair.V(d) * np.abs(
            profile.derivative(d)) ** p, scenario.pair.W(d) * np.abs(
            profile.value(d)) ** p) * grad ** p

    quotient, bound, ok = _against_reduced(
        *_ball_integrals(model, [hi, hi], weight), reduced.quotient)
    return {"quotient": quotient, "error_bound": bound,
            "reduced_quotient": reduced.quotient, "pass": ok}
