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

from .functional import reduce_radial_functional
from .profiles import Profile, smooth_bump
from .scenarios import (CheckFailure, ParameterDomainError, Scenario,
                        closed_form_maximizer, scenario_catalog)
from .sharpness import plateau_cutoff, strip_cutoff

__all__ = [
    "GaugeModel",
    "MonteCarloEstimate",
    "VandermondeDomain",
    "SingularPointError",
    "UnsupportedModelError",
    "ResolutionError",
    "euclidean",
    "grushin",
    "greiner",
    "cylindrical_split",
    "gauge_eval",
    "gauge_gradient_fd_error",
    "homogeneity_error",
    "cylindrical_orthogonality_error",
    "measure_homogeneity_check",
    "strip_quotient",
    "vandermonde_checks",
    "direct_rayleigh",
    "DEFAULT_SEED",
]

DEFAULT_SEED = 0x5EED
_N_BATCHES = 32


class SingularPointError(ParameterDomainError):
    """Gauge evaluation requested at the gauge origin."""


class UnsupportedModelError(ParameterDomainError):
    """Operation undefined for this gauge model (e.g. unbounded gauge balls)."""


class ResolutionError(CheckFailure):
    """Tensor grid failed its internal convergence check."""


@dataclass(frozen=True)
class MonteCarloEstimate:
    mean: float
    std_error: float
    samples: int
    seed: int

    def __post_init__(self) -> None:
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")


@dataclass(frozen=True)
class GaugeModel:
    kind: str                    # euclidean | grushin | greiner | cylindrical_split
    dims: int
    h: int                       # number of horizontal fields
    Q: float
    dilation_exponents: tuple[float, ...]
    params: dict = field(default_factory=dict)

    # -- gauge closed forms -------------------------------------------------

    def gauge(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.kind == "euclidean":
            return np.linalg.norm(pts, axis=1)
        if self.kind == "grushin":
            n, gam = self.params["n"], self.params["gamma"]
            x = np.linalg.norm(pts[:, :n], axis=1)
            y = np.linalg.norm(pts[:, n:], axis=1)
            return (x ** (2.0 * (1.0 + gam)) + y ** 2) ** (0.5 / (1.0 + gam))
        if self.kind == "greiner":
            n, gam = self.params["n"], self.params["gamma"]
            z = np.linalg.norm(pts[:, :2 * n], axis=1)
            t = pts[:, -1]
            return (z ** (4.0 * gam) + t ** 2) ** (0.25 / gam)
        m = self.params["m"]
        return np.linalg.norm(pts[:, :m], axis=1)

    def grad_gauge_mag(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.kind in ("euclidean", "cylindrical_split"):
            return np.ones(pts.shape[0])
        if self.kind == "grushin":
            n, gam = self.params["n"], self.params["gamma"]
            if gam == 0.0:
                return np.ones(pts.shape[0])
            x = np.linalg.norm(pts[:, :n], axis=1)
            return (x / self.gauge(pts)) ** gam
        n, gam = self.params["n"], self.params["gamma"]
        z = np.linalg.norm(pts[:, :2 * n], axis=1)
        return z ** (2.0 * gam - 1.0) / self.gauge(pts) ** (2.0 * gam - 1.0)

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

    def dilate(self, lam: float, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        exps = np.asarray(self.dilation_exponents)
        return pts * lam ** exps[None, :]

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


def gauge_eval(model: GaugeModel, point) -> dict:
    """Gauge value and gauge-gradient magnitude at one point."""
    pts = np.atleast_2d(np.asarray(point, dtype=float))
    d = model.gauge(pts)
    if d[0] == 0.0:
        raise SingularPointError("gauge vanishes only at the origin; "
                                 "evaluation there is undefined")
    return {"d": float(d[0]), "grad_gauge_mag": float(model.grad_gauge_mag(pts)[0])}


def _fd_gradient(func, pts: np.ndarray, rel_step: float = 1e-3) -> np.ndarray:
    """4th-order central finite-difference gradient, per coordinate."""
    pts = np.atleast_2d(pts)
    npts, dims = pts.shape
    grad = np.zeros_like(pts)
    for j in range(dims):
        h = rel_step * (1.0 + np.abs(pts[:, j]))
        for c, s in ((1.0, -2.0), (-8.0, -1.0), (8.0, 1.0), (-1.0, 2.0)):
            shifted = pts.copy()
            shifted[:, j] += s * h
            grad[:, j] += c * func(shifted)
        grad[:, j] /= 12.0 * h
    return grad


def gauge_gradient_fd_error(model: GaugeModel, pts: np.ndarray,
                            rel_step: float = 1e-3) -> float:
    """Max relative mismatch between |sigma grad d| from finite differences
    and the closed form, away from singular sets."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    grad = _fd_gradient(model.gauge, pts, rel_step)
    sig = model.sigma(pts)
    horizontal = np.einsum("nhd,nd->nh", sig, grad)
    fd_mag = np.linalg.norm(horizontal, axis=1)
    closed = model.grad_gauge_mag(pts)
    return float(np.max(np.abs(fd_mag - closed) / (np.abs(closed) + 1e-12)))


def homogeneity_error(model: GaugeModel, samples: int = 1000,
                      seed: int = DEFAULT_SEED) -> float:
    """Max relative defect of d(delta_lam x) = lam d(x) over random points."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-2.0, 2.0, size=(samples, model.dims))
    lam = rng.uniform(0.1, 10.0, size=samples)
    d = model.gauge(pts)
    keep = d > 1e-9
    exps = np.asarray(model.dilation_exponents)
    scaled = pts[keep] * lam[keep, None] ** exps[None, :]
    d_scaled = model.gauge(scaled)
    return float(np.max(np.abs(d_scaled - lam[keep] * d[keep])
                        / (lam[keep] * d[keep])))


def cylindrical_orthogonality_error(model: GaugeModel, samples: int = 200,
                                    seed: int = DEFAULT_SEED) -> float:
    """For the Greiner family: the horizontal derivative of the vertical
    radius |t| is orthogonal to the first-layer direction (z/|z|, 0); the
    quantity x.(sigma_1 y) vanishes identically."""
    if model.kind != "greiner":
        raise UnsupportedModelError("orthogonality check targets the Greiner model")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.2, 2.0, size=(samples, model.dims)) \
        * rng.choice([-1.0, 1.0], size=(samples, model.dims))
    sig = model.sigma(pts)
    vertical = np.sign(pts[:, -1])[:, None] * sig[:, :, -1]   # grad_L |t|
    z = pts[:, :model.h]
    direction = z / np.linalg.norm(z, axis=1, keepdims=True)
    dots = np.einsum("nh,nh->n", vertical, direction)
    return float(np.max(np.abs(dots)))


def _batched_ratio(weigh, sampler, samples: int, seed: int,
                   chunk: int = 1 << 20):
    """Ratio of two Monte-Carlo means over a common sample stream with a
    batch-means standard error; `weigh(pts)` returns the (numerator,
    denominator) weights of one batch."""
    if samples < 1:
        raise ParameterDomainError(
            f"Monte-Carlo sample count must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    batch_num = np.zeros(_N_BATCHES)
    batch_den = np.zeros(_N_BATCHES)
    batch_cnt = np.zeros(_N_BATCHES)
    chunk = min(chunk, max(1024, -(-samples // _N_BATCHES)))
    done = 0
    b = 0
    while done < samples:
        take = min(chunk, samples - done)
        num, den = weigh(sampler(rng, take))
        batch_num[b % _N_BATCHES] += float(np.sum(num))
        batch_den[b % _N_BATCHES] += float(np.sum(den))
        batch_cnt[b % _N_BATCHES] += take
        done += take
        b += 1
    total_num = batch_num.sum()
    total_den = batch_den.sum()
    if total_den == 0:
        raise CheckFailure("Monte-Carlo denominator vanished; no mass sampled")
    ratio = total_num / total_den
    live = batch_cnt > 0
    per_batch = batch_num[live] / np.where(batch_den[live] != 0, batch_den[live], 1.0)
    n_live = int(live.sum())
    spread = float(np.std(per_batch, ddof=1)) if n_live > 1 else 0.0
    return ratio, spread / math.sqrt(max(n_live, 1))


def measure_homogeneity_check(model: GaugeModel, alpha: float, R1: float,
                              R2: float, samples: int,
                              seed: int = DEFAULT_SEED) -> dict:
    """Monte-Carlo test of the gauge-ball scaling law: the ratio of
    int_{B_R} |grad_L d|^alpha dx at R2 and R1 must equal (R2/R1)^Q."""
    if not (alpha >= 0 and math.isfinite(alpha)):
        raise ParameterDomainError(f"alpha must be >= 0 and finite, got {alpha}")
    if not (0 < R1 <= R2 and math.isfinite(R2)):
        raise ParameterDomainError(
            f"need finite radii 0 < R1 <= R2, got {R1}, {R2}")
    if model.dims > 4:
        raise UnsupportedModelError("desk scale: model dimension must be <= 4")
    if R1 == R2:
        return {"ratio": MonteCarloEstimate(1.0, 0.0, 0, seed), "expected": 1.0,
                "rel_error": 0.0, "pass": True, "inconclusive": False}
    half = model.ball_box(R2)

    def sampler(rng, n):
        return rng.uniform(-1.0, 1.0, size=(n, model.dims)) * half[None, :]

    def ball_weight(pts, d, R):
        """|grad_L d|^alpha on the gauge ball of radius R, 0 outside."""
        inside = d < R
        if alpha == 0.0:
            return inside.astype(float)
        w = np.zeros(pts.shape[0])
        w[inside] = model.grad_gauge_mag(pts[inside]) ** alpha
        return w

    def weigh(pts):
        d = model.gauge(pts)
        w = ball_weight(pts, d, R2)
        return w, np.where(d < R1, w, 0.0)

    ratio, std_error = _batched_ratio(weigh, sampler, samples, seed)
    expected = (R2 / R1) ** model.Q
    gap = abs(ratio - expected)
    estimate = MonteCarloEstimate(ratio, std_error, samples, seed)
    # one extra pass gives the gauge-ball constant itself (no closed form);
    # it weighs only the R1 ball, since this pass holds up to 2^20 points at
    # once and also weighing the larger R2 ball raises peak memory by a quarter
    rng = np.random.default_rng(seed + 1)
    pts = rng.uniform(-1.0, 1.0, size=(min(samples, 1 << 20), model.dims)) \
        * half[None, :]
    vol = float(np.prod(2.0 * half))
    lam_alpha = vol * float(np.mean(ball_weight(pts, model.gauge(pts), R1))) \
        / R1 ** model.Q
    return {
        "ratio": estimate,
        "expected": expected,
        "rel_error": gap / expected,
        "lambda_alpha_estimate": lam_alpha,
        "pass": bool(gap <= max(3.0 * std_error, 1e-3 * expected)),
        "inconclusive": bool(std_error > 0.05 * expected),
    }


# -- strip ------------------------------------------------------------------

def _panel_nodes_1d(edges: np.ndarray, n_nodes: int):
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def strip_quotient(theta: float, epsilon: float) -> float:
    """Directional Rayleigh quotient on the strip (-pi/2, pi/2) x R for the
    gauge e^y cos x, evaluated on the truncated maximizer

        u = cos(x)^(theta-1/2) f_eps(x) e^((theta-1/2) y) eta(y)

    by tensor-grid quadrature. An internal two-resolution check guards
    against an under-resolved grid (`ResolutionError`).
    """
    if not math.isfinite(theta):
        raise ParameterDomainError(f"theta must be finite, got {theta}")
    f = strip_cutoff(epsilon)
    x_in, x_out = f.knots[2:]
    eta = smooth_bump(0.0, 1.0)     # vertical truncation on [-1, 1]
    s = theta - 0.5

    def quotient_at(refine: int) -> float:
        # x-panels graded geometrically toward x_in, down to the bridge width
        levels = max(10, math.ceil(math.log2(1.0 / epsilon))) + refine
        inner = x_in * (1.0 - 0.5 ** np.arange(1, levels))
        bridge = np.linspace(x_in, x_out, 8 * (1 + refine))
        edges = np.unique(np.concatenate([[0.0], inner, [x_in], bridge, [x_out]]))
        xs, wx = _panel_nodes_1d(edges, 16)
        ys, wy = _panel_nodes_1d(np.linspace(-1.0, 1.0, 12 * (1 + refine)), 16)
        X = xs[:, None]
        Y = ys[None, :]
        cos = np.cos(X)
        sin = np.sin(X)
        P = cos ** s * f.value(xs)[:, None]
        Pp = -s * cos ** (s - 1.0) * sin * f.value(xs)[:, None] \
            + cos ** s * f.derivative(xs)[:, None]
        E = np.exp(s * Y) * eta.value(ys)[None, :]
        Ep = s * np.exp(s * Y) * eta.value(ys)[None, :] \
            + np.exp(s * Y) * eta.derivative(ys)[None, :]
        D = -sin * (Pp * E) + cos * (P * Ep)
        vweight = cos ** (-2.0 * (theta - 1.0)) * np.exp(-2.0 * (theta - 1.0) * Y)
        num = 2.0 * np.einsum("i,ij,j->", wx, D ** 2 * vweight, wy)
        den = 2.0 * np.einsum(
            "i,ij,j->", wx,
            (P * E) ** 2 * cos ** (-2.0 * theta) * np.exp(-2.0 * (theta - 1.0) * Y),
            wy)
        return num / den

    coarse = quotient_at(0)
    fine = quotient_at(1)
    if abs(fine - coarse) > 1e-6 * abs(fine):
        raise ResolutionError(f"tensor grid not converged at eps = {epsilon}: "
                              f"{float(coarse)} vs {float(fine)}")
    return fine


# -- Vandermonde sector -----------------------------------------------------

@dataclass(frozen=True)
class VandermondeDomain:
    m: int
    N: int
    theta: float

    def __post_init__(self) -> None:
        if self.m < 2 or self.N < self.m:
            raise ParameterDomainError(
                f"need 2 <= m <= N, got m={self.m}, N={self.N}")


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
                       seed: int = DEFAULT_SEED, epsilon: float = 1e-2,
                       check_points: int = 200) -> dict:
    """Harmonicity, sphere eigenvalue, and sector Rayleigh quotient for the
    ordered-coordinate domain.

    The eigenvalue check uses the polar split Delta = d_rr + (N-1)/r d_r +
    r^-2 Delta_sphere: for w = r^-kappa nu (the degree-kappa sphere factor),
    -r^2 Delta w / w equals the sphere eigenvalue kappa (kappa + N - 2).
    The Monte-Carlo quotient of the truncated maximizer is compared with the
    `antisymmetric` scenario's reduced quotient of the same profile, which
    approaches the sharp constant only as epsilon -> 0.
    """
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
    pts = rng.uniform(-2.0, 2.0, size=(check_points, N))
    lap, scale = _fd_laplacian(vandermonde, pts)
    harmonicity_residual = float(np.max(np.abs(lap) / scale))

    # (ii) sphere eigenvalue via the radial power w = r^-kappa nu
    spts = rng.normal(size=(check_points, N))
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

    quotient, std_error = _batched_ratio(weigh, sampler, mc_samples, seed)
    return {
        "harmonicity_residual": harmonicity_residual,
        "sphere_eigvalue_residual": sphere_eigvalue_residual,
        "rayleigh_quotient": quotient,
        "rayleigh_std_error": std_error,
        "expected_sphere_eigenvalue": expected_eig,
        "expected_constant": sector.sharp_constant,
        "reduced_quotient": reduced.quotient,
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
        d = model.gauge(pts)
        mask = (d > lo) & (d < hi)
        dm = d[mask]
        gm = model.grad_gauge_mag(pts[mask]) ** p
        num = np.zeros(pts.shape[0])
        den = np.zeros(pts.shape[0])
        num[mask] = scenario.pair.V(dm) * np.abs(profile.derivative(dm)) ** p * gm
        den[mask] = scenario.pair.W(dm) * np.abs(profile.value(dm)) ** p * gm
        return num, den

    ratio, std_error = _batched_ratio(weigh, sampler, mc_samples, seed)
    return MonteCarloEstimate(ratio, std_error, mc_samples, seed)
