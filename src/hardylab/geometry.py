"""Concrete gauge geometries and direct multi-dimensional verification.

Each model carries its homogeneous gauge d, the closed form of the
horizontal-gradient magnitude |grad_L d|, the field matrix sigma(x), and the
dilation exponents. Monte-Carlo estimates of gauge-ball integrals cross-check
the exact scaling law Phi_alpha(R) = lambda_alpha R^Q, and the directional
Rayleigh quotient of a d-radial profile is compared against its 1-D coarea
reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .profiles import Profile, smooth_bump
from .scenarios import (DEFAULT_SEED, CheckFailure, ParameterDomainError,
                        Scenario, closed_form_maximizer, scenario_catalog)

__all__ = [
    "GaugeModel",
    "MonteCarloEstimate",
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

_MAX_CHUNK = 1 << 20      # Monte-Carlo points weighed at once: bounds memory
_HOMOGENEITY_SAMPLES = 1000
_ORTHOGONALITY_SAMPLES = 200
_CHECK_POINTS = 200       # harmonicity and sphere-eigenvalue test points
_STRIP_TOL = 1e-13        # relative target of each strip integral


def _radius(cols: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row; a single column is its absolute value,
    which is what sqrt(x * x) rounds to in binary64 barring under/overflow."""
    if cols.shape[1] == 1:
        return np.abs(cols[:, 0])
    return np.linalg.norm(cols, axis=1)


class UnsupportedModelError(ParameterDomainError):
    """Operation undefined for this gauge model (e.g. unbounded gauge balls)."""


@dataclass(frozen=True)
class MonteCarloEstimate:
    mean: float
    std_error: float
    samples: int
    seed: int

    def __post_init__(self) -> None:
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")

    def agrees_with(self, value: float) -> bool:
        """The 3-sigma rule: value within three standard errors of the mean."""
        return bool(abs(self.mean - value) <= 3.0 * self.std_error)


@dataclass(frozen=True)
class GaugeModel:
    kind: str                    # euclidean | grushin | greiner | cylindrical_split
    dims: int
    h: int                       # number of horizontal fields
    Q: float
    dilation_exponents: tuple[float, ...]
    params: dict = field(default_factory=dict)

    # -- gauge closed forms -------------------------------------------------

    def _layers(self, pts: np.ndarray):
        """One pass over the points: the gauge d and the first-layer radius
        that |grad_L d| needs besides d (None where |grad_L d| = 1)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.kind == "euclidean":
            return _radius(pts), None
        if self.kind == "grushin":
            n, gam = self.params["n"], self.params["gamma"]
            x = _radius(pts[:, :n])
            y = _radius(pts[:, n:])
            d = (x ** (2.0 * (1.0 + gam)) + y ** 2) ** (0.5 / (1.0 + gam))
            return d, None if gam == 0.0 else x
        if self.kind == "greiner":
            n, gam = self.params["n"], self.params["gamma"]
            z = _radius(pts[:, :2 * n])
            t = pts[:, -1]
            return (z ** (4.0 * gam) + t ** 2) ** (0.25 / gam), z
        return _radius(pts[:, :self.params["m"]]), None

    def _grad(self, d: np.ndarray, radius) -> np.ndarray:
        """|grad_L d| from d and the first-layer radius at the same points."""
        if radius is None:
            return np.ones(d.shape[0])
        gam = self.params["gamma"]
        if self.kind == "grushin":
            return (radius / d) ** gam
        return radius ** (2.0 * gam - 1.0) / d ** (2.0 * gam - 1.0)

    def gauge(self, pts: np.ndarray) -> np.ndarray:
        return self._layers(pts)[0]

    def grad_gauge_mag(self, pts: np.ndarray) -> np.ndarray:
        return self._grad(*self._layers(pts))

    def gauge_and_grad(self, pts: np.ndarray, keep):
        """d at every point, the mask keep(d), and |grad_L d| at the masked
        points, all from one pass over the layer radii."""
        d, radius = self._layers(pts)
        mask = keep(d)
        return d, mask, self._grad(d[mask], None if radius is None else radius[mask])

    def sigma(self, pts: np.ndarray) -> np.ndarray:
        """Field matrix sigma(x) of shape (npts, h, dims)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        npts = pts.shape[0]
        out = np.zeros((npts, self.h, self.dims))
        if self.kind in ("euclidean", "cylindrical_split"):
            out[:] = np.eye(self.dims)[None, :, :]
            return out
        if self.kind == "grushin":
            n, k, gam = self.params["n"], self.params["k"], self.params["gamma"]
            xmag = np.linalg.norm(pts[:, :n], axis=1)
            for i in range(n):
                out[:, i, i] = 1.0
            for j in range(k):
                out[:, n + j, n + j] = (1.0 + gam) * xmag ** gam
            return out
        n, gam = self.params["n"], self.params["gamma"]
        zmag = np.linalg.norm(pts[:, :2 * n], axis=1)
        zfac = 2.0 * gam * zmag ** (2.0 * gam - 2.0)
        for i in range(n):
            out[:, i, i] = 1.0
            out[:, i, -1] = zfac * pts[:, n + i]        # + 2 gamma y_i |z|^(2g-2) d_t
            out[:, n + i, n + i] = 1.0
            out[:, n + i, -1] = -zfac * pts[:, i]       # - 2 gamma x_i |z|^(2g-2) d_t
        return out

    def ball_box(self, R: float) -> np.ndarray:
        """Half-widths of the smallest dilation-adapted box containing the
        gauge ball of radius R."""
        if self.kind == "cylindrical_split":
            raise UnsupportedModelError(
                "cylindrical gauge balls are unbounded; no enclosing box")
        exps = np.asarray(self.dilation_exponents)
        return R ** exps


def euclidean(N: int) -> GaugeModel:
    if N < 1:
        raise ParameterDomainError(f"need N >= 1, got {N}")
    return GaugeModel("euclidean", N, N, float(N), (1.0,) * N, {"N": N})


def grushin(n: int, k: int, gamma: float) -> GaugeModel:
    if not (gamma >= 0 and math.isfinite(gamma)):
        raise ParameterDomainError(f"gamma must be >= 0 and finite, got {gamma}")
    if n < 1 or k < 0:
        raise ParameterDomainError(f"grushin needs n >= 1, k >= 0, got ({n}, {k})")
    Q = n + (1.0 + gamma) * k
    exps = (1.0,) * n + (1.0 + gamma,) * k
    return GaugeModel("grushin", n + k, n + k, Q, exps,
                      {"n": n, "k": k, "gamma": gamma})


def greiner(n: int, gamma: float) -> GaugeModel:
    if not (gamma >= 1 and math.isfinite(gamma)):
        raise ParameterDomainError(f"gamma must be >= 1 and finite, got {gamma}")
    if n < 1:
        raise ParameterDomainError(f"greiner needs n >= 1, got {n}")
    Q = 2.0 * n + 2.0 * gamma
    exps = (1.0,) * (2 * n) + (2.0 * gamma,)
    return GaugeModel("greiner", 2 * n + 1, 2 * n, Q, exps,
                      {"n": n, "gamma": gamma})


def cylindrical_split(m: int, N: int) -> GaugeModel:
    if not 1 <= m <= N:
        raise ParameterDomainError(f"need 1 <= m <= N, got m={m}, N={N}")
    return GaugeModel("cylindrical_split", N, N, float(N), (1.0,) * N,
                      {"m": m, "N": N})


def _fd_gradient(func, pts: np.ndarray) -> np.ndarray:
    """4th-order central finite-difference gradient, per coordinate, with
    steps 1e-3 (1 + |x_j|)."""
    pts = np.atleast_2d(pts)
    npts, dims = pts.shape
    grad = np.zeros_like(pts)
    for j in range(dims):
        h = 1e-3 * (1.0 + np.abs(pts[:, j]))
        for c, s in ((1.0, -2.0), (-8.0, -1.0), (8.0, 1.0), (-1.0, 2.0)):
            shifted = pts.copy()
            shifted[:, j] += s * h
            grad[:, j] += c * func(shifted)
        grad[:, j] /= 12.0 * h
    return grad


def gauge_gradient_fd_error(model: GaugeModel, pts: np.ndarray) -> float:
    """Max relative mismatch between |sigma grad d| from finite differences
    and the closed form, away from singular sets."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    grad = _fd_gradient(model.gauge, pts)
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
    if model.kind != "greiner":
        raise UnsupportedModelError("orthogonality check targets the Greiner model")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.2, 2.0, size=(_ORTHOGONALITY_SAMPLES, model.dims)) \
        * rng.choice([-1.0, 1.0], size=(_ORTHOGONALITY_SAMPLES, model.dims))
    sig = model.sigma(pts)
    vertical = np.sign(pts[:, -1])[:, None] * sig[:, :, -1]   # grad_L |t|
    z = pts[:, :model.h]
    direction = z / np.linalg.norm(z, axis=1, keepdims=True)
    dots = np.einsum("nh,nh->n", vertical, direction)
    return float(np.max(np.abs(dots)))


def _mc_ratio(weigh, sampler, samples: int, seed: int):
    """Ratio R = sum n / sum d of two Monte-Carlo sums over one sample stream,
    its standard error from the per-sample residuals n_i - R d_i (Cochran,
    Sampling Techniques, 1977, sec. 6.3) and the mean denominator per sample,
    from one pass of running sums; `weigh(pts)` returns a chunk's (n, d)
    weights. The stream comes in about 32 chunks, which fixes the sampler's
    draws and the summation order."""
    if samples < 2:
        raise ParameterDomainError(
            f"Monte-Carlo sample count must be >= 2, got {samples}")
    rng = np.random.default_rng(seed)
    chunk = min(_MAX_CHUNK, max(1024, -(-samples // 32)))
    sums_num, sums_den = [], []
    nn = nd = dd = 0.0
    for done in range(0, samples, chunk):
        num, den = weigh(sampler(rng, min(chunk, samples - done)))
        sums_num.append(float(np.sum(num)))
        sums_den.append(float(np.sum(den)))
        nn += float(num @ num)
        nd += float(num @ den)
        dd += float(den @ den)
    total_num, total_den = float(np.sum(sums_num)), float(np.sum(sums_den))
    if total_den == 0:
        raise CheckFailure("Monte-Carlo denominator vanished; no mass sampled")
    ratio = total_num / total_den
    residual = max(nn - 2.0 * ratio * nd + ratio * ratio * dd, 0.0)
    std_error = math.sqrt(residual * samples / (samples - 1)) / abs(total_den)
    return ratio, std_error, total_den / samples


def measure_homogeneity_check(model: GaugeModel, alpha: float, R1: float,
                              R2: float, samples: int,
                              seed: int = DEFAULT_SEED) -> dict:
    """Monte-Carlo test of the gauge-ball scaling law: the ratio of
    Phi_alpha(R) = int_{B_R} |grad_L d|^alpha dx at R2 and R1 must equal
    (R2/R1)^Q. The same pass estimates lambda_alpha = Phi_alpha(R1) / R1^Q."""
    if not (alpha >= 0 and math.isfinite(alpha)):
        raise ParameterDomainError(f"alpha must be >= 0 and finite, got {alpha}")
    if not (0 < R1 <= R2 and math.isfinite(R2)):
        raise ParameterDomainError(
            f"need finite radii 0 < R1 <= R2, got {R1}, {R2}")
    if model.dims > 4:
        raise UnsupportedModelError("desk scale: model dimension must be <= 4")
    half = model.ball_box(R2)

    def sampler(rng, n):
        return rng.uniform(-1.0, 1.0, size=(n, model.dims)) * half[None, :]

    def weigh(pts):
        """|grad_L d|^alpha on the R2 and on the R1 gauge ball, 0 outside."""
        d, inside, grad = model.gauge_and_grad(pts, lambda d: d < R2)
        w = np.zeros(pts.shape[0])
        w[inside] = grad ** alpha           # 1.0 at alpha = 0, whatever grad is
        return w, np.where(d < R1, w, 0.0)

    ratio, std_error, mean_den = _mc_ratio(weigh, sampler, samples, seed)
    expected = (R2 / R1) ** model.Q
    estimate = MonteCarloEstimate(ratio, std_error, samples, seed)
    # the denominator is Phi_alpha(R1) / vol(box) per sample
    lam_alpha = float(np.prod(2.0 * half)) * mean_den / R1 ** model.Q
    return {
        "ratio": estimate,
        "expected": expected,
        "lambda_alpha_estimate": lam_alpha,
        "pass": estimate.agrees_with(expected),
        "inconclusive": bool(std_error > 0.05 * expected),
    }


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
    `QuadratureError`.
    """
    from .quadrature import integrate_batch
    from .sharpness import strip_cutoff

    if not math.isfinite(theta):
        raise ParameterDomainError(f"theta must be finite, got {theta}")
    f = strip_cutoff(epsilon)
    eta = smooth_bump(0.0, 1.0)     # vertical truncation on [-1, 1]
    sig = theta - 0.5

    def g(s):   # f' is d/ds = -d/dx
        return -(np.sin(s) * f.derivative(s) + sig * np.cos(s) * f.value(s))

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
    ests = integrate_batch(integrand, [lo] * 4 + [-1.0] * 2,
                           [hi] * 4 + [1.0] * 2, [False] * 6, [False] * 6,
                           [inner] * 4 + [[]] * 2, tol=0.0,
                           rel_tol=_STRIP_TOL)
    X1, X2, X3, X4, Y1, Z = (est.value for est in ests)
    return (X1 - 2.0 * (theta - 1.0) * X2
            + X3 * ((theta - 0.5) * (theta - 1.5) + Z / Y1)) / X4


def bound_verdict(check: str, value: float, theta: float = 1.0):
    """(expected, pass) of a one-float check: the strip quotient clears
    e = ((2 theta - 1)/2)^2 less 1e-9 max(1, e), like a sweep row, so the
    slack outgrows e's float spacing; a gradient's FD error is <= 1e-6,
    others 1e-12."""
    if check == "strip":
        expected = ((2.0 * theta - 1.0) / 2.0) ** 2
        return expected, value >= expected - 1e-9 * max(1.0, expected)
    return 0.0, value <= (1e-6 if check == "gradient" else 1e-12)


# -- Vandermonde sector -----------------------------------------------------

def vandermonde(pts: np.ndarray) -> np.ndarray:
    """prod_{i<j} (x_j - x_i) over the last axis."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    N = pts.shape[1]
    out = np.ones(pts.shape[0])
    for i in range(N):
        for j in range(i + 1, N):
            out *= pts[:, j] - pts[:, i]
    return out


def vandermonde_gradient(pts: np.ndarray) -> np.ndarray:
    """grad of the pair-difference product via its logarithmic derivative."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    nu = vandermonde(pts)
    N = pts.shape[1]
    grad = np.zeros_like(pts)
    for kk in range(N):
        ssum = np.zeros(pts.shape[0])
        for i in range(N):
            if i != kk:
                ssum += 1.0 / (pts[:, kk] - pts[:, i])
        grad[:, kk] = nu * ssum
    return grad


def _fd_laplacian(func, pts: np.ndarray, rel_step: float = 1e-3):
    """4th-order FD Laplacian together with its term scale for normalizing."""
    pts = np.atleast_2d(pts)
    npts, dims = pts.shape
    lap = np.zeros(npts)
    scale = np.zeros(npts)
    f0 = func(pts)
    for j in range(dims):
        h = rel_step * (1.0 + np.abs(pts[:, j]))
        acc = -30.0 * f0
        for c, s in ((-1.0, -2.0), (16.0, -1.0), (16.0, 1.0), (-1.0, 2.0)):
            shifted = pts.copy()
            shifted[:, j] += s * h
            acc += c * func(shifted)
        term = acc / (12.0 * h * h)
        lap += term
        scale = np.maximum(scale, np.abs(term))
    return lap, np.maximum(scale, 1.0)


def vandermonde_checks(N: int, theta: float, mc_samples: int,
                       seed: int = DEFAULT_SEED, epsilon: float = 1e-2) -> dict:
    """Harmonicity, sphere eigenvalue, and sector Rayleigh quotient for the
    ordered-coordinate domain.

    The eigenvalue check uses the polar split Delta = d_rr + (N-1)/r d_r +
    r^-2 Delta_sphere: for w = r^-kappa nu (the degree-kappa sphere factor),
    -r^2 Delta w / w equals the sphere eigenvalue kappa (kappa + N - 2).
    The Monte-Carlo quotient of the truncated maximizer is compared with the
    `antisymmetric` scenario's reduced quotient of the same profile, which
    approaches the sharp constant only as epsilon -> 0.
    """
    from .functional import reduce_radial_functional
    from .sharpness import plateau_cutoff

    if N not in (2, 3, 4):
        raise ParameterDomainError(f"desk scale: N in {{2,3,4}}, got {N}")
    sector = scenario_catalog("antisymmetric", N=N, theta=theta)
    g = plateau_cutoff(epsilon)
    reduced = reduce_radial_functional(sector, closed_form_maximizer(sector) * g)
    rng = np.random.default_rng(seed)
    kappa = sector.extra["vandermonde_degree"]
    expected_eig = sector.extra["sphere_eigenvalue"]

    # (i) harmonicity of the pair-difference product (per-coordinate degree
    # N-1, so the 4th-order stencil is exact up to roundoff)
    pts = rng.uniform(-2.0, 2.0, size=(_CHECK_POINTS, N))
    lap, scale = _fd_laplacian(vandermonde, pts)
    harmonicity_residual = float(np.max(np.abs(lap) / scale))

    # (ii) sphere eigenvalue via the radial power w = r^-kappa nu
    spts = rng.normal(size=(_CHECK_POINTS, N))
    spts = spts[np.abs(vandermonde(spts)) > 1e-2]
    spts *= (1.0 + rng.uniform(0.0, 1.0, size=(spts.shape[0], 1)))

    def w(x):
        r = np.linalg.norm(np.atleast_2d(x), axis=1)
        return r ** (-kappa) * vandermonde(x)

    lap_w, _ = _fd_laplacian(w, spts, rel_step=2e-3)
    r2 = np.sum(spts ** 2, axis=1)
    eig_est = -r2 * lap_w / w(spts)
    sphere_eigvalue_residual = float(np.max(np.abs(eig_est - expected_eig))
                                     / expected_eig)

    # (iii) Rayleigh quotient of u = r^-(N^2-2 theta)/2 nu g_eps(r) by
    # log-radial importance sampling over the cutoff support
    a_exp = (N * N - 2.0 * theta) / 2.0
    lo, hi = g.support

    def sampler(rng_, n):
        r = np.exp(rng_.uniform(math.log(lo), math.log(hi), size=n))
        direc = rng_.normal(size=(n, N))
        direc /= np.linalg.norm(direc, axis=1, keepdims=True)
        return r[:, None] * direc

    def weigh(ptsx):
        r = np.linalg.norm(ptsx, axis=1)
        nu = vandermonde(ptsx)
        F = r ** (-a_exp) * g.value(r)
        Fp = -a_exp * r ** (-a_exp - 1.0) * g.value(r) \
            + r ** (-a_exp) * g.derivative(r)
        gradnu = vandermonde_gradient(ptsx)
        gradu = Fp[:, None] * ptsx / r[:, None] * nu[:, None] + F[:, None] * gradnu
        # r^N: the log-radial importance-sampling weight
        return (np.sum(gradu ** 2, axis=1) * r ** (-2.0 * (theta - 1.0)) * r ** N,
                (F * nu) ** 2 * r ** (-2.0 * theta) * r ** N)

    quotient, std_error, _ = _mc_ratio(weigh, sampler, mc_samples, seed)
    return {
        "harmonicity_residual": harmonicity_residual,
        "sphere_eigvalue_residual": sphere_eigvalue_residual,
        "rayleigh_quotient": quotient,
        "rayleigh_std_error": std_error,
        "expected_sphere_eigenvalue": expected_eig,
        "expected_constant": sector.sharp_constant,
        "reduced_quotient": reduced.quotient,
        "pass": bool(harmonicity_residual <= 1e-6
                     and sphere_eigvalue_residual <= 1e-5
                     and abs(quotient - reduced.quotient)
                     <= 0.05 * reduced.quotient),
    }


# -- direct multi-dimensional Rayleigh --------------------------------------

def direct_rayleigh(model: GaugeModel, scenario: Scenario, profile: Profile,
                    mc_samples: int, seed: int = DEFAULT_SEED) -> MonteCarloEstimate:
    """Monte-Carlo estimate of the directional quotient

        int V(d) |grad_L u . grad_L d / |grad_L d||^p dx
        ---------------------------------------------------
        int W(d) |u|^p |grad_L d|^p dx

    for the d-radial function u = profile(d), by box sampling of the support
    shell. For a d-radial u the directional derivative is profile'(d)
    |grad_L d| exactly, so only the gauge and its gradient magnitude enter;
    the estimate must agree with the 1-D coarea reduction within noise.
    """
    if model.dims > 4:
        raise UnsupportedModelError("desk scale: model dimension must be <= 4")
    if abs(model.Q - scenario.exponents.Q) > 1e-9:
        raise ParameterDomainError(
            f"scenario Q={scenario.exponents.Q} does not match model Q={model.Q}")
    p = scenario.exponents.p
    lo = max(profile.support[0], scenario.pair.interval[0])
    hi = min(profile.support[1], scenario.pair.interval[1])
    if not (lo < hi and math.isfinite(hi)):
        raise ParameterDomainError("profile support must be a bounded shell")
    half = model.ball_box(hi)

    def sampler(rng, n):
        return rng.uniform(-1.0, 1.0, size=(n, model.dims)) * half[None, :]

    def weigh(pts):
        d, mask, grad = model.gauge_and_grad(pts, lambda d: (d > lo) & (d < hi))
        dm = d[mask]
        gm = grad ** p
        num = np.zeros(pts.shape[0])
        den = np.zeros(pts.shape[0])
        num[mask] = scenario.pair.V(dm) * np.abs(profile.derivative(dm)) ** p * gm
        den[mask] = scenario.pair.W(dm) * np.abs(profile.value(dm)) ** p * gm
        return num, den

    ratio, std_error, _ = _mc_ratio(weigh, sampler, mc_samples, seed)
    return MonteCarloEstimate(ratio, std_error, mc_samples, seed)
