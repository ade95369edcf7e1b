"""Globally adaptive Gauss-Kronrod quadrature over a batch of integrals.

One kernel refines a flat list of intervals, each tagged with the integral
(its *owner*) it belongs to; per-owner sums come from ``np.bincount``, and the
integrand is called as f(x: ndarray, owner: ndarray) -> ndarray on the nodes of
all live intervals at once, so many small integrals cost about as much as one
large one. The owner bookkeeping is array work too: one seed mesh is built for
all owners at once (a lexsort over owner and edge), and the result is one
``QuadratureEstimate`` of arrays indexed by owner, each ended owner's entries
written by fancy indexing. Singular-endpoint flags (one per owner) and split
points (one (n, m) array, a row NaN-padded) are optional; the seed mesh drops
points outside an owner's interval, on its ends, repeated or NaN, so callers
pass them unfiltered. Every owner keeps its own target, refinement and
stopping rules, and its result depends on its own intervals only, never on
its batch mates. Converged owners drop out. The kernel returns estimates
only: once every owner has ended, it raises the QuadratureError of the
lowest-numbered owner that failed, the error integrating the owners one by
one in order would raise first. ``integrate_adaptive`` is the one-owner case
and returns row 0 of its batch as floats.

Endpoint singularities get a geometric seed mesh toward the flagged endpoint.
Improper upper limits are handled by the substitution r = a + t/(1-t), which
maps [a, +inf) to [0, 1) and turns the far end into a flagged singular endpoint.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

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
_GRADES = np.array([0.5 ** k for k in range(1, _GRADE_LEVELS + 1)])
_DECADES = np.array([10.0 ** j for j in range(1, 309)])   # j < ceil(log10(b/a)) <= 309
_SPLIT_BATCH = 256            # max intervals refined per owner per sweep
_CHUNK = 256                  # intervals per integrand call: bounds a batch's working set


class QuadratureEstimate(NamedTuple):
    """Value, error bound and subdivisions of an integral: floats (an int)
    for one integral, arrays indexed by owner for a batch."""

    value: float | np.ndarray
    error_estimate: float | np.ndarray
    subdivisions: int | np.ndarray


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
    integrates over t in [0, 1) for r = shift + t/(1-t): the map and its
    Jacobian 1/(1-t)^2 are taken over the whole chunk and kept, by np.where,
    on the rows of such owners only. The rules are row-wise dot products
    (vecdot), not one BLAS matrix product, so an interval's numbers do not
    depend on its position in the batch. Returns {owner: first non-finite r}
    for the owners whose integrand met a non-finite value. Runs under
    integrate_batch's np.errstate.
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
        at = shift[owner, None]
        mapped = np.isfinite(at)
        one_m = 1.0 - x
        x = np.where(mapped, at + x / one_m, x)
    vals = np.ascontiguousarray(f(x, owner), dtype=float).reshape(x.shape)
    if shift is not None:
        vals = np.where(mapped, vals / one_m ** 2, vals)
    bad = {}
    finite = np.isfinite(vals)
    if np.count_nonzero(finite) < finite.size:
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


def _seed_mesh(a: np.ndarray, b: np.ndarray, singular_left, singular_right,
               points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lefts, rights, owner) of every owner's seed intervals, in owner order.

    Owner k's edges are its ends, the points of row k of the (n, m) array
    points strictly inside (a NaN pads a row and drops out), _GRADES toward
    each flagged end and, on a span [a, b] with a > 0 and b/a > 100, one edge
    per decade a 10^j, j < ceil(log10(b/a)); an improper owner is seeded on
    [0, 1] in t, its points mapped and its right end flagged. One lexsort
    over (owner, edge) and dropping each edge equal to the one before it
    give every owner's distinct edges in ascending order; the ends come
    first, so an edge equal to an end drops out. Raises the error of the
    lowest-numbered owner with a >= b (ValueError) or a b/a that overflows
    (ParameterDomainError). Runs under integrate_batch's np.errstate.
    """
    n = a.size
    improper = b == math.inf
    lo, hi = a.copy(), b.copy()
    lo[improper], hi[improper] = 0.0, 1.0
    ratio = hi / lo
    # multi-decade radial span: one seed panel per decade, otherwise a wide
    # panel whose nodes all miss a left-edge power-law spike can report zero
    # error and silently drop its mass
    wide = ((lo > 0.0) & (ratio > 100.0)).nonzero()[0]
    wrong = ~(a < b)
    if wide.size:
        wrong[wide] |= ratio[wide] == math.inf
    if np.count_nonzero(wrong):
        k = int(wrong.argmax())
        if not a[k] < b[k]:
            raise ValueError("integration bounds must satisfy a < b, got "
                             f"[{float(a[k])}, {float(b[k])}]")
        raise ParameterDomainError(f"span [{float(lo[k])}, {float(hi[k])}] "
                                   "is wider than a float ratio holds")
    ids = np.arange(n)
    edges, owners = [lo, hi], [ids, ids]
    if points.size:
        p, p_owner = points.ravel(), ids.repeat(points.size // n)
        at, mapped = a[p_owner], improper[p_owner]
        t = np.where(p > at, (p - at) / (1.0 + p - at), np.nan)
        edges.append(np.where(mapped, t, p))
        owners.append(p_owner)
    width = hi - lo
    left = np.asarray(singular_left, bool).nonzero()[0]
    if left.size:
        edges.append((lo[left, None] + width[left, None] * _GRADES).ravel())
        owners.append(left.repeat(_GRADE_LEVELS))
    right = (np.asarray(singular_right, bool) | improper).nonzero()[0]
    if right.size:
        edges.append((hi[right, None] - width[right, None] * _GRADES).ravel())
        owners.append(right.repeat(_GRADE_LEVELS))
    if wide.size:
        count = np.array([math.ceil(math.log10(r)) - 1
                          for r in ratio[wide].tolist()])
        start = np.cumsum(count) - count
        j = np.arange(start[-1] + count[-1]) - start.repeat(count)
        edges.append(lo[wide].repeat(count) * _DECADES[j])
        owners.append(wide.repeat(count))
    if len(edges) == 2:     # no owner has an edge between its ends
        return lo, hi, ids
    edges, owners = np.concatenate(edges), np.concatenate(owners)
    inside = (edges >= lo[owners]) & (edges <= hi[owners])
    edges, owners = edges[inside], owners[inside]
    order = np.lexsort((edges, owners))
    edges, owners = edges[order], owners[order]
    fresh = np.ones(edges.size, bool)
    fresh[1:] = (edges[1:] != edges[:-1]) | (owners[1:] != owners[:-1])
    edges, owners = edges[fresh], owners[fresh]
    span = owners[1:] == owners[:-1]
    return edges[:-1][span], edges[1:][span], owners[:-1][span]


def _worst(hot, errs, owner, n):
    """Keep each owner's _SPLIT_BATCH worst hot intervals (ties by position)."""
    for k in (np.bincount(owner[hot], minlength=n) > _SPLIT_BATCH).nonzero()[0]:
        mine = (hot & (owner == k)).nonzero()[0]
        hot[mine[np.argsort(-errs[mine], kind="stable")[_SPLIT_BATCH:]]] = False
    return hot


# the non-finite check names an overflowing owner: the kernel, its integrand
# calls included, warns of no overflow, division by zero or invalid value
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def integrate_batch(
    f: Callable,
    a: Sequence[float],
    b: Sequence[float],
    singular_left: Sequence[bool] | None = None,
    singular_right: Sequence[bool] | None = None,
    points: np.ndarray | Sequence[Sequence[float]] | None = None,
    tol: float = 1e-10,
    rel_tol: float = 1e-10,
    max_subdivisions: int = 1 << 20,
) -> QuadratureEstimate:
    """Integrate the owners k = 0..n-1, each f(., k) over [a[k], b[k]] (b[k]
    may be +inf), in one adaptive pass.

    f(x, owner) takes an (m, 15) array of nodes and the (m,) owners of its
    rows and returns the m * 15 values, in x's shape or raveled. Owner k has
    its own endpoint-singularity flags (by default none) and interior split
    points points[k], row k of an (n, m) array-like (m may be 0, as by
    default) whose NaN entries pad a row and are ignored; flags of a shape
    other than (n,) or a first axis of points other than n is a ValueError.
    All owners are seeded at once by `_seed_mesh`; the tolerances and the
    subdivision cap are shared. Owner k is done when its error sum meets
    max(tol, rel_tol * max(|total|, mass)), mass being the sum of |interval
    values|; until then each sweep refines its intervals above a fair share
    of that target, worst first and at most _SPLIT_BATCH of them. An owner
    whose every such interval has shrunk to the float grid ends with its
    current estimate. Returns the arrays of every owner's value, error
    estimate and subdivisions, each ended owner's entries written by fancy
    indexing; once all owners have ended, raises instead the QuadratureError
    of the lowest-numbered owner that failed: a non-finite integrand value,
    or the subdivision cap, with the partial estimate.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    n = a.size
    points = np.empty((n, 0)) if points is None else np.asarray(points, float)
    if points.shape[:1] != (n,):
        raise ValueError(f"points must have {n} rows, got {points.shape}")
    flags = [np.zeros(n, bool) if given is None else np.asarray(given, bool)
             for given in (singular_left, singular_right)]
    for name, flag in zip(("singular_left", "singular_right"), flags):
        if flag.shape != (n,):
            raise ValueError(f"{name} must have {n} entries, got {flag.shape}")
    est = QuadratureEstimate(np.empty(n), np.empty(n), np.empty(n, dtype=int))
    if not n:
        return est
    lefts, rights, owner = _seed_mesh(a, b, *flags, points)
    improper = b == math.inf
    shift = np.where(improper, a, math.inf) if improper.any() else None
    # rows of iv: left, right, value and error of every live interval; owner
    # slots are renumbered 0..live-1 whenever some owners end, and ids maps
    # them back to the caller's owner numbers, which f, shift and bad use
    iv = np.empty((4, owner.size))
    iv[0], iv[1] = lefts, rights
    bad = _gk15(f, iv[0], iv[1], owner, shift, iv[2:])
    ids = np.arange(n)
    stalled = None
    failed: dict[int, QuadratureError] = {}
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
        ok = total_err <= target
        if stalled is not None:
            ok |= stalled
        ended = ok.copy()
        if owner.size >= max_subdivisions:   # some owner may be at the cap
            ended |= count >= max_subdivisions
        if bad:
            nonfinite = np.searchsorted(ids, list(bad))
            ended[nonfinite], ok[nonfinite] = True, False
        n_ended = np.count_nonzero(ended)
        if n_ended:
            k = ids[ok]
            est.value[k], est.error_estimate[k] = total[ok], total_err[ok]
            est.subdivisions[k] = count[ok]
            for j in (ended & ~ok).nonzero()[0]:
                k = int(ids[j])
                if k in bad:
                    failed[k] = QuadratureError(
                        f"non-finite integrand value at x={bad[k]!r}")
                else:
                    failed[k] = QuadratureError(
                        f"adaptive quadrature did not converge within "
                        f"{max_subdivisions} subdivisions (error "
                        f"{total_err[j]:.3e} > target {target[j]:.3e})",
                        partial=QuadratureEstimate(float(total[j]),
                                                   float(total_err[j]),
                                                   int(count[j])))
            if n_ended == ids.size:
                if failed:
                    raise failed[min(failed)]
                return est
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
    the one-owner case of integrate_batch, whose row 0 it returns as floats.
    Raises QuadratureError carrying the partial estimate on
    non-convergence."""
    est = integrate_batch(
        lambda x, owner: f(x.ravel()), [a], [b], [singular_left],
        [singular_right], np.reshape(points, (1, -1)),
        tol=tol, rel_tol=rel_tol, max_subdivisions=max_subdivisions)
    return QuadratureEstimate._make(field.item(0) for field in est)
