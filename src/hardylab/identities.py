"""Exact verification of the algebraic identities behind the inequalities.

The scalar identity splits |f|^p + (p-1)|g|^p - p|g|^(p-2) Re(conj(g) f),
the Picone remainder R_p(f, g) that the sharpness sweeps integrate too,
into two nonnegative s-integrals over the segment h(s) = s g + (1-s) f.
Everything here exploits the exact parabola

    |h(s)|^2 = A (s - s0)^2 + d^2,      A = |f - g|^2,

and the identity Re((f-g) conj(h(s))) = -A (s - s0), which removes the
spurious |h|^(p-4) singularity analytically: the integrands become powers of
q(s) = A (s-s0)^2 + d^2 and are integrated on per-pair geometrically graded
Gauss-Legendre panels, vectorized over large sample batches. Only the panels
that meet [0,1] are evaluated, flattened over the batch and summed back per
pair; a block of pairs builds its candidate panels only as deep as its own
widest reach needs, and every block's node arrays share one workspace.
"""

from __future__ import annotations

import math

import numpy as np

from .scenarios import CheckFailure, ParameterDomainError, require_p

__all__ = [
    "scalar_identity_batch",
    "vector_identity_batch", "identity_verdict",
    "realified_identity_oracle",
    "sample_complex_pairs",
    "rhs_closed_form",
    "picone_remainder",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)
_N_PANELS = 42          # geometric panels per side of the near-zero point
# Panel ends s0 +- width * offset, the offsets doubling from 1. The last one is
# infinite so that each side's outermost panel runs to the end of [0,1] however
# far s0 lies outside it: for f ~ g, s0 ~ |f|/|f-g| reaches 1e12, beyond any
# finite reach of the grading, and otherwise every weight would be 0.
_OFFSETS = np.concatenate([[0.0], 2.0 ** np.arange(_N_PANELS - 1.0), [np.inf]])
_MIN_FEATURE = 1e-12
_CHUNK = 256           # pairs per block: a generic block's node buffers stay in L2
_SERIES_TERMS = 20     # binomial terms of the Picone remainder near g


def _inner(a, b, vector: bool):
    """Re<a, b> from real products, contracting the last axis if vector."""
    prod = a.real * b.real
    if np.iscomplexobj(a) and np.iscomplexobj(b):
        prod = prod + a.imag * b.imag
    return np.sum(prod, axis=-1) if vector else prod


def picone_remainder(p: float, g, d, vector: bool = False) -> np.ndarray:
    """R_p(g + d, g) = |g + d|^p - |g|^p - p |g|^(p-2) Re<g, d> >= 0, the
    remainder of Picone's identity for the p-Laplacian, for real, complex or
    (vector=True) C^h arguments, g broadcast against d; |d|^2 at p = 2.

    With m = p/2 and x = (2 Re<g, d> + |d|^2)/|g|^2, so |g + d|^2 =
    |g|^2 (1 + x), it is |g|^(p-2) [m |d|^2 + |g|^2 sum_(k>=2) binom(m, k)
    x^k]. Where |x| < min(1/4, 1/m) the direct form cancels, and the series,
    whose leading terms do not, is summed to k = _SERIES_TERMS + 1.
    """
    g, d = np.broadcast_arrays(g, d)
    dd = _inner(d, d, vector)
    if p == 2.0:
        return dd
    m = 0.5 * p

    def norm(a):
        return np.sqrt(_inner(a, a, vector)) if vector else np.abs(a)

    ag, gd = norm(g), _inner(g, d, vector)
    out = np.asarray(norm(g + d) ** p - ag ** p - p * ag ** (p - 2.0) * gd)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = (2.0 * gd + dd) / (ag * ag)
    near = np.abs(x) < min(0.25, 1.0 / m)
    if near.any():
        coef = np.cumprod([m * (m - 1.0) / 2.0] + [
            (m - k) / (k + 1.0) for k in range(2, _SERIES_TERMS + 1)])
        xn, agn = x[near], ag[near]
        out[near] = agn ** (p - 2.0) * (
            m * dd[near] + (agn * xn) ** 2 * np.polyval(coef[::-1], xn))
    return out


def rhs_closed_form(p: float, f: np.ndarray, g: np.ndarray,
                    vector: bool = False) -> np.ndarray:
    """|f|^p + (p-1)|g|^p - p |g|^(p-2) Re<g, f> = R_p(f, g), elementwise
    over scalar pairs or, with vector=True, over C^h pairs of shape (n, h)."""
    f, g = np.asarray(f), np.asarray(g)
    return picone_remainder(p, g, f - g, vector)


def _graded_panels(A: np.ndarray, s0: np.ndarray, d2: np.ndarray):
    """Panels on [0,1] graded geometrically toward s0 at the feature width
    sqrt(d2/A) of q(s) = A (s-s0)^2 + d2, flattened over the batch (A > 0).

    Returns (owner, lo, hi): panel k spans [lo[k], hi[k]] for element owner[k].
    Only panels that intersect [0,1] are kept; per element they tile [0,1].
    The table is cut at the depth L the batch needs: its first L + 1 offsets,
    then the infinite one in place of 2^L. Once width 2^L reaches
    max(|s0|, |1-s0|) for every element, both sides are clipped to the ends
    of [0,1] at offset 2^L as at the infinite one, and every deeper panel is
    empty. L = ceil(log2(max of that reach/width)) + 2 keeps two doublings
    to spare for rounding; a batch whose reach is past the table or not
    finite (an overflowing pair) takes all of `_OFFSETS`.
    """
    width = np.clip(np.sqrt(np.maximum(d2, 0.0) / A), _MIN_FEATURE, 0.25)
    reach = float(np.max(np.maximum(np.abs(s0), np.abs(1.0 - s0)) / width))
    depth = (min(math.ceil(math.log2(reach)) + 2, _N_PANELS - 1)
             if math.isfinite(reach) else _N_PANELS - 1)
    offs = width[:, None] * np.append(_OFFSETS[:depth + 1], np.inf)[None, :]
    right = np.clip(s0[:, None] + offs, 0.0, 1.0)
    left = np.clip(s0[:, None] - offs, 0.0, 1.0)
    lo = np.concatenate([right[:, :-1], left[:, 1:]], axis=1)  # (n, 2 depth + 2)
    hi = np.concatenate([right[:, 1:], left[:, :-1]], axis=1)
    flat = np.flatnonzero(hi != lo)
    return flat // lo.shape[1], lo.ravel()[flat], hi.ravel()[flat]


def _segment_kernels(p: float, A: np.ndarray, s0: np.ndarray, d2: np.ndarray,
                     times_q: bool):
    """(K2, K1): K2 = int_0^1 s (s-s0)^2 q^((p-4)/2) ds and K1 = int_0^1
    s q^((p-4)/2) ds, or with times_q int_0^1 s q^((p-4)/2) q ds, which is
    int_0^1 s q^((p-2)/2) ds; the scalar identity reads K1 without q, the
    vector one with it.

    Pairs are taken in blocks of `_CHUNK`, and a pair's panels never leave
    its block, so each pair's result does not depend on its batch; each
    block's panels are only as deep as that block needs. Every block writes
    its node arrays into one workspace of four buffers, sized for the block
    with the most panels: the nodes s, (s-s0)^2, q and q^((p-4)/2). K2's
    integrand (s (s-s0)^2) q^((p-4)/2) overwrites (s-s0)^2, K1's
    (s q^((p-4)/2)) q overwrites s, and the weights take the buffer of
    q^((p-4)/2) once both have read it.
    """
    K = np.zeros((2, A.shape[0]))
    live_idx = np.flatnonzero(A > 0.0)
    blocks = [live_idx[start:start + _CHUNK]
              for start in range(0, live_idx.size, _CHUNK)]
    panels = [_graded_panels(A[idx], s0[idx], d2[idx]) for idx in blocks]
    work = np.empty((4, max((lo.size for _, lo, _ in panels), default=0),
                     _GL_NODES.size))
    for idx, (owner, lo, hi) in zip(blocks, panels):
        pair = idx[owner]
        s, ds2, q, qm4 = work[:, :lo.size]
        half = 0.5 * (hi - lo)
        np.multiply(half[:, None], _GL_NODES, out=s)
        np.add((0.5 * (hi + lo))[:, None], s, out=s)
        np.subtract(s, s0[pair, None], out=ds2)
        np.square(ds2, out=ds2)
        np.multiply(A[pair, None], ds2, out=q)
        np.add(q, d2[pair, None], out=q)
        np.maximum(q, 1e-300, out=q)
        np.copyto(qm4, q)
        qm4 **= (p - 4.0) / 2.0   # as q ** e: numpy's fast paths at p = 2 and 4
        np.multiply(np.multiply(s, ds2, out=ds2), qm4, out=ds2)
        np.multiply(s, qm4, out=s)
        if times_q:
            np.multiply(s, q, out=s)
        w = np.multiply(half[:, None], _GL_WEIGHTS, out=qm4)
        for k, vals in enumerate((ds2, s)):
            K[k, idx] = np.bincount(owner, np.einsum("ij,ij->i", w, vals),
                                    minlength=idx.size)
    return tuple(K)


def _split(p: float, f, g, times_q: bool, terms):
    """The split of rows f, g of shape (n, h): on the segment
    h(s) = f + s (g - f), |h|^2 is minimal at s0 with value d^2, and
    terms(A, K2, K1) gives (w_term, wtilde_term) from `_segment_kernels`.
    Runs with numpy's overflow warnings off and raises CheckFailure where a
    term left the float range: such a split cannot be checked, and its NaN
    residual would read as a failed bound."""
    with np.errstate(over="ignore", invalid="ignore"):
        diff = f - g
        A = np.sum(np.abs(diff) ** 2, axis=1)
        A_safe = np.where(A > 0, A, 1.0)
        s0 = np.real(np.sum(np.conj(f) * diff, axis=1)) / A_safe
        d2 = np.sum(np.abs(f + s0[:, None] * (g - f)) ** 2, axis=1)
        w_term, wtilde_term = terms(A, *_segment_kernels(p, A, s0, d2, times_q))
        rhs = rhs_closed_form(p, f, g, vector=True)
        out = {"w_term": w_term, "wtilde_term": wtilde_term,
               "rhs_closed": rhs, "residual": np.abs(w_term + wtilde_term - rhs)}
    for name, value in out.items():
        if not np.all(np.isfinite(value)):
            raise CheckFailure(f"{name} is not finite at p = {p!r}: the "
                               "identity split overflows the float range")
    return out


def identity_verdict(out: dict):
    """A split's worst residual / (1e-9 (1 + |rhs|)); failing above 1."""
    worst = float(np.max(out["residual"]
                         / (1e-9 * (1.0 + np.abs(out["rhs_closed"])))))
    return worst, None if worst <= 1.0 else (
        "scalar/vector identity residual exceeded 1e-9 (1 + |rhs|)")


def _require_finite(f, g, names: str):
    """ParameterDomainError naming the first row (index along the first
    axis) where f or g holds a NaN or an infinity."""
    bad = ~(np.isfinite(f) & np.isfinite(g))
    if bad.any():
        row = int(np.argmax(bad.reshape(bad.shape[0], -1).any(axis=1)))
        raise ParameterDomainError(f"{names} must be finite: row {row} is not")


def scalar_identity_batch(p: float, f: np.ndarray, g: np.ndarray) -> dict:
    """Scalar identity split for a batch of complex pairs (vectorized)."""
    require_p(p)
    f = np.atleast_1d(np.asarray(f, dtype=complex))
    g = np.atleast_1d(np.asarray(g, dtype=complex))
    _require_finite(f, g, "f and g")
    im = np.imag(f * np.conj(g))
    return _split(p, f[:, None], g[:, None], False,
                  lambda A, K2m4, K1m4: (p * (p - 1.0) * A ** 2 * K2m4,
                                         p * im ** 2 * K1m4))


def vector_identity_batch(p: float, zeta: np.ndarray, xi: np.ndarray) -> dict:
    """Vector identity split for a batch of pairs in C^h, shape (n, h)."""
    require_p(p)
    zeta = np.atleast_2d(np.asarray(zeta, dtype=complex))
    xi = np.atleast_2d(np.asarray(xi, dtype=complex))
    if zeta.shape != xi.shape:
        raise ValueError("zeta and xi must have equal shapes (n, h)")
    _require_finite(zeta, xi, "zeta and xi")
    return _split(p, zeta, xi, True,
                  lambda A, K2m4, K1m2: (p * A * K1m2,
                                         p * (p - 2.0) * A ** 2 * K2m4))


def realified_identity_oracle(p: float, mu, nu, tol: float = 1e-12) -> dict:
    """Taylor-remainder route for the realified identity in R^(2h).

    The right side is computed through the t-integral remainder
    int_0^1 (1-t) [p(p-2)|c|^(p-4) (c . D)^2 + p |c|^(p-2) |D|^2] dt,
    c(t) = nu + t (mu - nu), D = mu - nu, using the generic adaptive engine;
    an independent numerical path from the graded-panel batch quadrature.
    """
    from .quadrature import integrate_adaptive

    require_p(p)
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if mu.shape != nu.shape or mu.ndim != 1:
        raise ValueError("mu and nu must be real vectors of equal length")
    delta = mu - nu
    nd2 = float(delta @ delta)
    lhs = float(np.linalg.norm(mu) ** p + (p - 1.0) * np.linalg.norm(nu) ** p
                - p * np.linalg.norm(nu) ** (p - 2.0) * float(nu @ mu))
    if nd2 == 0.0:
        return {"lhs": lhs, "rhs": 0.0}

    def integrand(t):
        t = np.asarray(t, dtype=float)
        c = nu[None, :] + t[:, None] * delta[None, :]
        q = np.maximum(np.sum(c * c, axis=1), 1e-300)
        cdot = c @ delta
        second = p * q ** ((p - 2.0) / 2.0) * nd2
        if p != 2.0:
            second = second + p * (p - 2.0) * q ** ((p - 4.0) / 2.0) * cdot ** 2
        return (1.0 - t) * second

    # |c(t)|^2 = |D|^2 (t - t0)^2 + |c(t0)|^2, so |c| has a kink of width
    # |c(t0)|/|D| at t0. On near-antipodal pairs GK15 steps over it with a
    # falsely small error estimate; breakpoints graded geometrically toward
    # t0 at that width resolve it.
    t0 = -float(nu @ delta) / nd2
    width = max(float(np.linalg.norm(nu + t0 * delta)) / math.sqrt(nd2), _MIN_FEATURE)
    offs = width * 2.0 ** np.arange(math.ceil(math.log2((1.0 + abs(t0)) / width)) + 1)
    points = np.concatenate([[t0], t0 - offs, t0 + offs])
    points = points[(points > 0.0) & (points < 1.0)]
    est = integrate_adaptive(integrand, 0.0, 1.0, tol=tol, rel_tol=tol,
                             points=points)
    return {"lhs": lhs, "rhs": est.value}


def sample_complex_pairs(rng: np.random.Generator, count: int,
                         radius: float = 10.0, adversarial: bool = True):
    """Uniform pairs on the disc of given radius, with a slice of adversarial
    near-collinear pairs (g close to f, -f, and 0) stressing the s-quadrature."""
    if count < 1:
        raise ParameterDomainError(f"sample count must be >= 1, got {count}")
    def disc(n):
        r = radius * np.sqrt(rng.uniform(size=n))
        ang = rng.uniform(0.0, 2.0 * math.pi, size=n)
        return r * np.exp(1j * ang)

    f = disc(count)
    g = disc(count)
    if adversarial and count >= 20:
        n_adv = count // 10
        sl = slice(0, n_adv)
        base = disc(n_adv)
        eps = 10.0 ** rng.uniform(-12.0, -3.0, size=n_adv)
        kind = rng.integers(0, 3, size=n_adv)
        wiggle = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=n_adv))
        f[sl] = base
        g[sl] = np.where(kind == 0, base * (1.0 + eps * wiggle),
                         np.where(kind == 1, -base * (1.0 + eps * wiggle),
                                  eps * wiggle * radius))
    return f, g
