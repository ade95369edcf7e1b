"""Globally adaptive Gauss-Kronrod quadrature with endpoint-singularity grading.

All integrands are expected to be numpy-vectorized: f(r: ndarray) -> ndarray.
Improper upper limits are handled by the substitution r = a + t/(1-t), which
maps [a, +inf) to [0, 1) and turns the far end into a flagged singular endpoint,
so a single kernel serves every integral in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .scenarios import CheckFailure

__all__ = [
    "QuadratureEstimate",
    "QuadratureError",
    "integrate_adaptive",
]

# 15-point Kronrod extension of 7-point Gauss (QUADPACK dqk15 constants).
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

_NODES = np.concatenate([-_XGK[:7], _XGK[::-1]])          # 15 ascending nodes
_W_KRON = np.concatenate([_WGK[:7], _WGK[::-1]])
_W_GAUSS = np.zeros(15)
_W_GAUSS[1:14:2] = np.concatenate([_WG[:3], _WG[::-1]])   # Gauss nodes sit at odd slots

_GRADE_LEVELS = 18            # geometric seed mesh depth toward a singular endpoint
_SPLIT_BATCH = 256            # max intervals refined per sweep


@dataclass(frozen=True)
class QuadratureEstimate:
    """Value of an integral together with an error bound and work count."""

    value: float
    error_estimate: float
    subdivisions: int

    def __post_init__(self) -> None:
        if self.error_estimate < 0:
            raise ValueError("error_estimate must be nonnegative")


class QuadratureError(CheckFailure):
    """Adaptive refinement failed; carries the partial estimate."""

    def __init__(self, message: str, partial: QuadratureEstimate | None = None):
        super().__init__(message)
        self.partial = partial


def _gk15_batch(f: Callable, lefts: np.ndarray, rights: np.ndarray):
    """Gauss-Kronrod 15 on a batch of intervals with one integrand call."""
    half = 0.5 * (rights - lefts)
    mid = 0.5 * (rights + lefts)
    pts = mid[:, None] + half[:, None] * _NODES[None, :]
    vals = np.asarray(f(pts.ravel()), dtype=float).reshape(pts.shape)
    if not np.all(np.isfinite(vals)):
        bad = pts.ravel()[~np.isfinite(vals.ravel())]
        raise QuadratureError(f"non-finite integrand value near r={float(bad[0])!r}")
    kron = half * (vals @ _W_KRON)
    gauss = half * (vals @ _W_GAUSS)
    # QUADPACK-style sharpened error estimate
    resasc = half * (np.abs(vals - (kron / (2.0 * half))[:, None]) @ _W_KRON)
    raw = np.abs(kron - gauss)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.where(
            (resasc > 0) & (raw > 0),
            resasc * np.minimum(1.0, (200.0 * raw / np.where(resasc > 0, resasc, 1.0)) ** 1.5),
            raw,
        )
    err = np.where(np.isfinite(scaled), scaled, raw)
    return kron, err


def _initial_edges(a: float, b: float, singular_left: bool, singular_right: bool,
                   points: Sequence[float]) -> np.ndarray:
    edges = {a, b}
    for p in points:
        if a < p < b:
            edges.add(float(p))
    width = b - a
    if singular_left:
        edges.update(a + width * 0.5 ** k for k in range(1, _GRADE_LEVELS + 1))
    if singular_right:
        edges.update(b - width * 0.5 ** k for k in range(1, _GRADE_LEVELS + 1))
    if a > 0 and b / a > 100.0:
        # multi-decade radial span: one seed panel per decade, otherwise a wide
        # panel whose nodes all miss a left-edge power-law spike can report
        # zero error and silently drop its mass
        k = math.ceil(math.log10(b / a))
        edges.update(a * 10.0 ** j for j in range(1, k))
    return np.array(sorted(e for e in edges if a <= e <= b))


def integrate_adaptive(
    f: Callable,
    a: float,
    b: float,
    tol: float = 1e-10,
    rel_tol: float = 1e-10,
    singular_left: bool = False,
    singular_right: bool = False,
    max_subdivisions: int = 1 << 20,
    points: Sequence[float] = (),
) -> QuadratureEstimate:
    """Integrate f over [a, b] (b may be +inf) to the requested tolerance.

    Endpoint singularities of integrable type are handled by a geometric seed
    mesh toward the flagged endpoint followed by global adaptive bisection.
    Raises QuadratureError carrying the partial estimate on non-convergence.
    """
    if not a < b:
        raise ValueError(f"integration bounds must satisfy a < b, got [{a}, {b}]")
    if math.isinf(b):
        shift = a

        def g(t, _f=f, _shift=shift):
            t = np.asarray(t, dtype=float)
            one_m = 1.0 - t
            return _f(_shift + t / one_m) / one_m ** 2

        inner = [(p - shift) / (1.0 + p - shift) for p in points if p > shift]
        return integrate_adaptive(
            g, 0.0, 1.0, tol=tol, rel_tol=rel_tol,
            singular_left=singular_left, singular_right=True,
            max_subdivisions=max_subdivisions, points=inner,
        )
    edges = _initial_edges(a, b, singular_left, singular_right, points)
    lefts, rights = edges[:-1], edges[1:]
    vals, errs = _gk15_batch(f, lefts, rights)

    while True:
        total = float(vals.sum())
        total_err = float(errs.sum())
        # relative accuracy is measured against the absolute mass so that
        # integrals of tiny magnitude (underflowing weights) still get
        # resolved instead of trivially meeting an absolute target
        mass = float(np.abs(vals).sum())
        target = max(tol, rel_tol * max(abs(total), mass))
        if total_err <= target:
            return QuadratureEstimate(total, total_err, len(vals))
        if len(vals) >= max_subdivisions:
            raise QuadratureError(
                f"adaptive quadrature did not converge within {max_subdivisions} "
                f"subdivisions (error {total_err:.3e} > target {target:.3e})",
                partial=QuadratureEstimate(total, total_err, len(vals)),
            )
        # refine every interval above its fair error share, worst first
        thresh = target / (2.0 * len(vals))
        order = np.argsort(errs)[::-1]
        hot = order[errs[order] > thresh][:_SPLIT_BATCH]
        if hot.size == 0:
            hot = order[:1]
        mids = 0.5 * (lefts[hot] + rights[hot])
        # stop refining intervals whose width approaches the float grid of
        # the endpoint location: Kronrod nodes of a narrower child could
        # round onto a singular endpoint (only an issue away from 0, where
        # denormals make the grid effectively unbounded below)
        stuck = mids - lefts[hot] <= np.abs(mids) * 1e-13
        if np.all(stuck):
            return QuadratureEstimate(total, total_err, len(vals))
        hot = hot[~stuck]
        mids = mids[~stuck]
        new_lefts = np.concatenate([lefts[hot], mids])
        new_rights = np.concatenate([mids, rights[hot]])
        new_vals, new_errs = _gk15_batch(f, new_lefts, new_rights)
        keep = np.ones(len(vals), dtype=bool)
        keep[hot] = False
        lefts = np.concatenate([lefts[keep], new_lefts])
        rights = np.concatenate([rights[keep], new_rights])
        vals = np.concatenate([vals[keep], new_vals])
        errs = np.concatenate([errs[keep], new_errs])
