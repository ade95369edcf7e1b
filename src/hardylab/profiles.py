"""Piecewise-smooth scalar profiles of one radial variable.

A Profile bundles a vectorized value function, its derivative, its support
and the knots of a piecewise definition. Products (maximizer times cut-off)
keep analytic derivatives via the product rule.

Smooth bumps are parameter arrays: ``Bumps`` holds the centres, half-widths
and amplitudes of a batch of bump sums, one profile per column. One pass
evaluates a single bump, one random profile or the whole batch, each row of
points on its own profile and only on the bumps that reach the row. A bump is
smooth but not analytic at its edges c -+ w, so the edges inside a profile's
support are its knots, where every integral of it is split; no kernel
interval then straddles an edge, and most (bump, row) pairs are skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["Profile", "Bumps", "smooth_bump", "random_bumps", "random_profile",
           "power_profile"]

_MAX_BUMPS = 4          # bumps per random profile: 1 to _MAX_BUMPS


@dataclass(frozen=True)
class Profile:
    value: Callable
    derivative: Callable
    support: tuple[float, float]
    knots: tuple[float, ...] = ()   # junctions of piecewise definitions

    def __call__(self, r):
        return self.value(r)

    def __mul__(self, other: "Profile") -> "Profile":
        lo = max(self.support[0], other.support[0])
        hi = min(self.support[1], other.support[1])
        if not lo < hi:
            raise ValueError("profile supports do not overlap")
        f, fp = self.value, self.derivative
        g, gp = other.value, other.derivative

        def value(r):
            return f(r) * g(r)

        def derivative(r):
            return fp(r) * g(r) + f(r) * gp(r)

        return Profile(
            value, derivative, (lo, hi),
            tuple(sorted(set(self.knots) | set(other.knots))),
        )


def _bump_sum(r, c, w, a, derivative: bool):
    """Sum of the C-infinity bumps a*exp(1 - 1/(1-t^2)), t = (r - c)/w, or of
    their r-derivatives, at the (m, n) points r; row i takes bump j from
    entry (j, i) of the (k, m) arrays c, w and a. Only live (bump, row) pairs
    are evaluated: a != 0, t < 1 at one end of the row and t > -1 at the
    other. fl((x - c)/w) is monotone in x, so a dead pair is zero on its whole
    row; fmin/fmax take the ends, skipping NaN points. The terms are added in
    bump order, bitwise the sum over all k bumps up to the sign of a zero: a
    dead pair adds +0.0 where its term could be -0.0 (a pad's, at the centre
    of its bump, in a derivative)."""
    k, m = c.shape
    ends = ((np.fmin.reduce(r, axis=1, initial=np.inf) - c) / w,
            (np.fmax.reduce(r, axis=1, initial=-np.inf) - c) / w)
    live = np.flatnonzero((a != 0.0) & (np.minimum(*ends) < 1.0)
                          & (np.maximum(*ends) > -1.0))
    cj, wj, aj = (x.take(live)[:, None] for x in (c, w, a))
    t = (r.take(live % m, axis=0) - cj) / wj
    inside = np.abs(t) < 1.0
    ts = np.where(inside, t, 0.0)
    q = 1.0 - ts**2
    core = np.exp(1.0 - 1.0 / q)
    if derivative:
        core = core * (-2.0 * ts / q**2)
        aj = aj / wj
    terms = np.zeros((k * m, r.shape[1]))
    terms[live] = np.where(inside, aj * core, 0.0)
    terms = terms.reshape((k,) + r.shape)
    return sum(terms[1:], terms[0])


@dataclass(frozen=True)
class Bumps:
    """A batch of bump sums: column i of the (k, count) arrays holds profile
    i's bumps. A profile with fewer than k bumps is padded with zero-amplitude
    copies of its first bump, which add exactly zero and leave its support
    unchanged."""

    centers: np.ndarray
    halfwidths: np.ndarray
    amplitudes: np.ndarray

    @property
    def supports(self) -> list[tuple[float, float]]:
        lo = (self.centers - self.halfwidths).min(axis=0)
        hi = (self.centers + self.halfwidths).max(axis=0)
        return list(zip(lo.tolist(), hi.tolist()))

    def _eval(self, r, rows, derivative: bool):
        # every call as (rows, points), one row per entry of rows
        r, rows = np.asarray(r, dtype=float), np.asarray(rows)
        n = math.prod(r.shape[rows.ndim:])
        out = _bump_sum(r.reshape(rows.size, n), *(
            x.take(rows.ravel(), axis=1)
            for x in (self.centers, self.halfwidths, self.amplitudes)),
            derivative)
        return out.reshape(r.shape)[()]   # a 0-d result as a numpy scalar

    def value(self, r, rows):
        """Profile rows[j] at r[j], where r may carry more trailing axes than
        rows; rows may also be one profile index."""
        return self._eval(r, rows, False)

    def derivative(self, r, rows):
        return self._eval(r, rows, True)

    @property
    def knots(self) -> list[tuple[float, ...]]:
        """Each profile's bump edges c -+ w strictly inside its support,
        where the sum is smooth but not analytic."""
        edges = np.concatenate([self.centers - self.halfwidths,
                                self.centers + self.halfwidths])
        return [tuple(sorted({e for e in col if lo < e < hi}))
                for col, (lo, hi) in zip(edges.T.tolist(), self.supports)]

    def profile(self, i: int) -> Profile:
        return Profile(lambda r: self.value(r, i),
                       lambda r: self.derivative(r, i), self.supports[i],
                       self.knots[i])


def smooth_bump(center: float, halfwidth: float,
                amplitude: float = 1.0) -> Profile:
    """C-infinity bump a*exp(1 - 1/(1-t^2)), t=(r-center)/halfwidth."""
    return Bumps(np.array([[float(center)]]), np.array([[float(halfwidth)]]),
                 np.array([[float(amplitude)]])).profile(0)


def random_bumps(rng: np.random.Generator, interval: tuple[float, float],
                 count: int) -> Bumps:
    """count random admissible test profiles, each a sum of smooth bumps
    supported strictly inside the open interval (improper ends are cut at
    30), drawn in the order of count successive random_profile calls: n
    bumps from integers(1, 5), then one call for the 4n - 1 uniforms of c,
    w and amp of each bump and a sign draw after the first, each value
    formed as uniform(low, high) forms it, so the stream is bitwise that of
    one call per number."""
    rbar, rmax = interval
    lo = max(rbar, 1e-6)
    hi = rmax if np.isfinite(rmax) else 30.0
    # keep clear of both endpoints
    span = hi - lo
    left = lo + 0.05 * span
    right = hi - 0.05 * span
    # uniforms of c, w, amp and sign; a first bump's sign of 1 never flips
    u = np.ones((count, _MAX_BUMPS, 4))
    sizes = []
    for row in u:
        n = int(rng.integers(1, _MAX_BUMPS + 1))
        draw = rng.random(4 * n - 1)
        row[0, :3], row[1:n] = draw[:3], draw[3:].reshape(n - 1, 4)
        row[n:] = row[0]
        sizes.append(n)
    k = max(sizes, default=1)
    u = u[:, :k]
    # numpy's uniform(low, high) is low + (high - low) * u
    c = left + (right - left) * u[..., 0]
    w = (0.2 + (0.95 - 0.2) * u[..., 1]) * np.minimum(c - lo, hi - c)
    amp = 0.2 + (1.0 - 0.2) * u[..., 2]
    amp = np.where(u[..., 3] < 0.4, -amp, amp)
    amp[np.arange(k) >= np.array(sizes)[:, None]] = 0.0
    return Bumps(*(np.ascontiguousarray(x.T) for x in (c, w, amp)))


def random_profile(rng: np.random.Generator,
                   interval: tuple[float, float]) -> Profile:
    """Random admissible test profile: a sum of smooth bumps supported
    strictly inside the open interval (improper ends are truncated)."""
    return random_bumps(rng, interval, 1).profile(0)


def power_profile(exponent: float, support: tuple[float, float]) -> Profile:
    """r -> r^exponent with analytic derivative (not compactly supported)."""
    g = float(exponent)
    return Profile(
        lambda r: np.asarray(r, dtype=float) ** g,
        lambda r: g * np.asarray(r, dtype=float) ** (g - 1.0),
        support,
    )
