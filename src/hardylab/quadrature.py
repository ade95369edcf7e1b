"""Globally adaptive Gauss-Kronrod quadrature over a batch of integrals.

One kernel refines a flat list of intervals, each tagged with the integral
(its *owner*) it belongs to; per-owner sums come from ``np.bincount``, and the
integrand is called as f(x: ndarray, owner: ndarray) -> ndarray on the nodes of
all live intervals at once, so many small integrals cost about as much as one
large one. Every owner keeps its own target, refinement and stopping rules,
and its result depends on its own intervals only, never on its batch mates.
Converged owners drop out. ``integrate_adaptive`` is the one-owner case.

Endpoint singularities get a geometric seed mesh toward the flagged endpoint.
Improper upper limits are handled by the substitution r = a + t/(1-t), which
maps [a, +inf) to [0, 1) and turns the far end into a flagged singular endpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .scenarios import CheckFailure, ParameterDomainError

__all__ = [
    "QuadratureEstimate",
    "QuadratureError",
    "integrate_adaptive",
    "integrate_batch",
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
_SPLIT_BATCH = 256            # max intervals refined per owner per sweep
_CHUNK = 256                  # intervals per integrand call: bounds a batch's working set


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


def _gk15(f: Callable, lefts: np.ndarray, rights: np.ndarray, owner: np.ndarray,
          shift: np.ndarray | None, out: np.ndarray) -> dict[int, float]:
    """Gauss-Kronrod 15 value and error estimate of each interval, written to
    the rows of out (2, m).

    f(x, owner) gets the (m, 15) nodes of at most _CHUNK intervals and their
    owners, and returns their m * 15 values. An owner with a finite ``shift``
    integrates over t in [0, 1) for r = shift + t/(1-t). The rules are
    row-wise dot products (vecdot), not one BLAS matrix product, so an
    interval's numbers do not depend on its position in the batch. Returns
    {owner: first non-finite r} for the owners whose integrand met a
    non-finite value.
    """
    if lefts.size > _CHUNK:
        bad: dict[int, float] = {}
        for s in range(0, lefts.size, _CHUNK):
            rows = slice(s, s + _CHUNK)
            for k, r in _gk15(f, lefts[rows], rights[rows], owner[rows], shift,
                              out[:, rows]).items():
                bad.setdefault(k, r)
        return bad
    half = 0.5 * (rights - lefts)
    mid = 0.5 * (rights + lefts)
    x = mid[:, None] + half[:, None] * _NODES[None, :]
    if shift is not None:
        mapped = np.isfinite(shift[owner])
        one_m = 1.0 - x[mapped]
        x[mapped] = shift[owner[mapped], None] + x[mapped] / one_m
    # the non-finite check below names an overflowing owner: no warnings
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        vals = np.ascontiguousarray(f(x, owner), dtype=float).reshape(x.shape)
        if shift is not None:
            vals[mapped] = vals[mapped] / one_m ** 2
        bad = {}
        finite = np.isfinite(vals)
        if not finite.all():
            for i in (~finite).ravel().nonzero()[0]:
                bad.setdefault(int(owner[i // 15]), float(x.flat[i]))
        kron = out[0]
        np.multiply(half, np.vecdot(vals, _W_KRON), out=kron)
        gauss = half * np.vecdot(vals, _W_GAUSS)
        # QUADPACK-style sharpened error estimate
        resasc = half * np.vecdot(
            np.abs(vals - (kron / (2.0 * half))[:, None]), _W_KRON)
        raw = np.abs(kron - gauss)
        # where resasc == 0 the quotient is discarded by the condition
        scaled = np.where(
            (resasc > 0) & (raw > 0),
            resasc * np.minimum(1.0, (200.0 * raw / resasc) ** 1.5),
            raw,
        )
    # a NaN raw error (overflowing rule sums) counts as the worst, +inf
    out[1] = np.where(np.isfinite(scaled), scaled, np.fmin(raw, np.inf))
    return bad


def _initial_edges(a: float, b: float, singular_left: bool, singular_right: bool,
                   points: Sequence[float]) -> list[float]:
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
        if b / a == math.inf:
            raise ParameterDomainError(
                f"span [{a}, {b}] is wider than a float ratio holds")
        k = math.ceil(math.log10(b / a))
        edges.update(a * 10.0 ** j for j in range(1, k))
    return sorted(e for e in edges if a <= e <= b)


def _worst(hot, errs, owner, n):
    """Keep each owner's _SPLIT_BATCH worst hot intervals (ties by position)."""
    for k in (np.bincount(owner[hot], minlength=n) > _SPLIT_BATCH).nonzero()[0]:
        mine = (hot & (owner == k)).nonzero()[0]
        hot[mine[np.argsort(-errs[mine], kind="stable")[_SPLIT_BATCH:]]] = False
    return hot


def integrate_batch(
    f: Callable,
    a: Sequence[float],
    b: Sequence[float],
    singular_left: Sequence[bool],
    singular_right: Sequence[bool],
    points: Sequence[Sequence[float]],
    tol: float = 1e-10,
    rel_tol: float = 1e-10,
    max_subdivisions: int = 1 << 20,
) -> list[QuadratureEstimate | QuadratureError]:
    """Integrate the owners k = 0..n-1, each f(., k) over [a[k], b[k]] (b[k]
    may be +inf), in one adaptive pass.

    f(x, owner) takes an (m, 15) array of nodes and the (m,) owners of its
    rows and returns the m * 15 values, in x's shape or raveled. Owner k has
    its own endpoint-singularity flags and interior split points points[k];
    the tolerances and the subdivision cap are shared. Owner k is done when
    its error sum meets max(tol, rel_tol * max(|total|, mass)), mass being
    the sum of |interval values|; until then each sweep refines its intervals
    above a fair share of that target, worst first and at most _SPLIT_BATCH
    of them. An owner whose every such interval has shrunk to the float grid
    ends with its current estimate. Returns each owner's estimate, or the
    QuadratureError it met: a non-finite integrand value, or the subdivision
    cap, with the partial estimate.
    """
    n = len(a)
    if not n:
        return []
    lefts, rights, sizes = [], [], []
    improper = False
    for k, (lo, hi) in enumerate(zip(a, b)):
        lo, hi = float(lo), float(hi)
        if not lo < hi:
            raise ValueError(
                f"integration bounds must satisfy a < b, got [{lo}, {hi}]")
        if math.isinf(hi):
            inner = [(p - lo) / (1.0 + p - lo) for p in points[k] if p > lo]
            edges = _initial_edges(0.0, 1.0, singular_left[k], True, inner)
            improper = True
        else:
            edges = _initial_edges(lo, hi, singular_left[k], singular_right[k],
                                   points[k])
        lefts += edges[:-1]
        rights += edges[1:]
        sizes.append(len(edges) - 1)
    shift = np.where(np.isinf(b), a, np.inf) if improper else None
    owner = np.arange(n).repeat(sizes)
    # rows of iv: left, right, value and error of every live interval; owner
    # slots are renumbered 0..live-1 whenever some owners end, and ids maps
    # them back to the caller's owner numbers, which f, shift and bad use
    iv = np.array([lefts, rights, lefts, rights])
    bad = _gk15(f, iv[0], iv[1], owner, shift, iv[2:])
    ids = np.arange(n)
    stalled = None
    out: list = [None] * n
    while True:
        count = np.bincount(owner, minlength=ids.size)
        total = np.bincount(owner, iv[2], ids.size)
        total_err = np.bincount(owner, iv[3], ids.size)
        # relative accuracy is measured against the absolute mass so that
        # integrals of tiny magnitude (underflowing weights) still get
        # resolved instead of trivially meeting an absolute target; summed
        # in the same order as total, mass >= |total| holds in floating point
        mass = np.bincount(owner, np.abs(iv[2]), ids.size)
        target = np.maximum(tol, rel_tol * mass)
        ended = total_err <= target
        if owner.size >= max_subdivisions:   # some owner may be at the cap
            ended |= count >= max_subdivisions
        if stalled is not None:
            ended |= stalled
        if bad:
            ended[np.searchsorted(ids, list(bad))] = True
        n_ended = np.count_nonzero(ended)
        if n_ended:
            for j in ended.nonzero()[0]:
                k = int(ids[j])
                est = QuadratureEstimate(float(total[j]), float(total_err[j]),
                                         int(count[j]))
                if k in bad:
                    out[k] = QuadratureError(
                        f"non-finite integrand value at x={bad[k]!r}")
                elif total_err[j] <= target[j] or stalled is not None and stalled[j]:
                    out[k] = est
                else:
                    out[k] = QuadratureError(
                        f"adaptive quadrature did not converge within "
                        f"{max_subdivisions} subdivisions (error "
                        f"{total_err[j]:.3e} > target {target[j]:.3e})",
                        partial=est)
            if n_ended == ids.size:
                return out
            stay = ~ended
            ids, count, target = ids[stay], count[stay], target[stay]
            sel = stay[owner]
            owner = (np.cumsum(stay) - 1)[owner[sel]]
            iv = iv.compress(sel, axis=1)
        # refine every interval above its owner's fair error share
        hot = iv[3] > (target / (2.0 * count))[owner]
        if np.count_nonzero(hot) > _SPLIT_BATCH:
            hot = _worst(hot, iv[3], owner, ids.size)
        idx = hot.nonzero()[0]
        left, right = iv[:2].take(idx, axis=1)
        mids = 0.5 * (left + right)
        # stop refining intervals whose width approaches the float grid of
        # the endpoint location: Kronrod nodes of a narrower child could
        # round onto a singular endpoint (only an issue away from 0, where
        # denormals make the grid effectively unbounded below); an owner
        # whose every hot interval is stuck ends with its current estimate
        stuck = mids - left <= np.abs(mids) * 1e-13
        stalled = None
        if np.count_nonzero(stuck):
            hot[idx[stuck]] = False
            free = ~stuck
            idx, left, right, mids = idx[free], left[free], right[free], mids[free]
            stalled = np.bincount(owner[idx], minlength=ids.size) == 0
        new = np.empty((4, 2 * idx.size))
        np.concatenate([left, mids, mids, right], out=new[:2].reshape(-1))
        mine = owner[idx]
        new_owner = np.concatenate([mine, mine])
        bad = _gk15(f, new[0], new[1], ids[new_owner], shift, new[2:])
        keep = ~hot
        iv = np.concatenate([iv.compress(keep, axis=1), new], axis=1)
        owner = np.concatenate([owner[keep], new_owner])


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
    """Integrate f(r) over [a, b] (b may be +inf) to the requested tolerance:
    the one-owner case of integrate_batch. Raises QuadratureError carrying
    the partial estimate on non-convergence."""
    (est,) = integrate_batch(
        lambda x, owner: f(x.ravel()),
        [a], [b], [singular_left], [singular_right], [points],
        tol=tol, rel_tol=rel_tol, max_subdivisions=max_subdivisions)
    if isinstance(est, QuadratureError):
        raise est
    return est
