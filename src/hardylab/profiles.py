"""Piecewise-smooth scalar profiles of one radial variable.

A Profile bundles a vectorized value function, its derivative, and compact
support metadata. Products (maximizer times cut-off) keep analytic
derivatives via the product rule.

Smooth bumps are parameter arrays: ``Bumps`` holds the centres, half-widths
and amplitudes of a batch of bump sums, one profile per column, and one
vectorized formula evaluates a single bump, one random profile, or the whole
batch at once with each point evaluated on its own profile's row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["Profile", "Bumps", "smooth_bump", "random_bumps", "random_profile",
           "power_profile"]


@dataclass(frozen=True)
class Profile:
    value: Callable
    derivative: Callable
    support: tuple[float, float]
    compactly_supported: bool = True
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
            self.compactly_supported or other.compactly_supported,
            tuple(sorted(set(self.knots) | set(other.knots))),
        )

    def scaled(self, c: float) -> "Profile":
        f, fp = self.value, self.derivative
        return Profile(lambda r: c * f(r), lambda r: c * fp(r),
                       self.support, self.compactly_supported, self.knots)

    def check_derivative(self, tol: float = 1e-5, n: int = 200,
                         margin: float = 1e-3) -> float:
        """Max relative mismatch between stored derivative and central FD."""
        lo, hi = self.support
        pad = margin * (hi - lo)
        r = np.linspace(lo + pad, hi - pad, n)
        h = 1e-6 * (hi - lo)
        fd = (self.value(r + h) - self.value(r - h)) / (2 * h)
        scale = np.max(np.abs(self.derivative(r))) + 1e-300
        err = float(np.max(np.abs(fd - self.derivative(r))) / scale)
        if err > tol:
            raise ValueError(f"derivative inconsistent with value: rel FD error {err:.3e}")
        return err


def _bump_sum(r, c, w, a, derivative: bool):
    """Sum of the C-infinity bumps a*exp(1 - 1/(1-t^2)), t = (r - c)/w, or of
    their r-derivatives, one bump per leading entry of c, w and a (each
    broadcast against r), added in order."""
    out = None
    for cj, wj, aj in zip(c, w, a):
        t = (r - cj) / wj
        inside = np.abs(t) < 1.0
        ts = np.where(inside, t, 0.0)
        q = 1.0 - ts**2
        core = np.exp(1.0 - 1.0 / q)
        if derivative:
            core = core * (-2.0 * ts / q**2)
            aj = aj / wj
        term = np.where(inside, aj * core, 0.0)
        out = term if out is None else out + term
    return out[()]   # a 0-d result as a numpy scalar


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
        r = np.asarray(r, dtype=float)
        pick = (slice(None), rows) + (None,) * (r.ndim - np.ndim(rows))
        return _bump_sum(r, self.centers[pick], self.halfwidths[pick],
                         self.amplitudes[pick], derivative)

    def value(self, r, rows):
        """Profile rows[j] at r[j], where r may carry more trailing axes than
        rows; rows may also be one profile index."""
        return self._eval(r, rows, False)

    def derivative(self, r, rows):
        return self._eval(r, rows, True)

    def profile(self, i: int) -> Profile:
        return Profile(lambda r: self.value(r, i),
                       lambda r: self.derivative(r, i), self.supports[i])


def smooth_bump(center: float, halfwidth: float,
                amplitude: float = 1.0) -> Profile:
    """C-infinity bump a*exp(1 - 1/(1-t^2)), t=(r-center)/halfwidth."""
    return Bumps(np.array([[float(center)]]), np.array([[float(halfwidth)]]),
                 np.array([[float(amplitude)]])).profile(0)


def random_bumps(rng: np.random.Generator, interval: tuple[float, float],
                 count: int, max_bumps: int = 4) -> Bumps:
    """count random admissible test profiles, each a sum of smooth bumps
    supported strictly inside the open interval (improper ends are
    truncated), drawn in the order of count successive random_profile calls."""
    rbar, rmax = interval
    lo = max(rbar, 1e-6)
    hi = rmax if np.isfinite(rmax) else 30.0
    # keep clear of both endpoints
    span = hi - lo
    left = lo + 0.05 * span
    right = hi - 0.05 * span
    draws = []
    for _ in range(count):
        n = int(rng.integers(1, max_bumps + 1))
        bumps = []
        for i in range(n):
            c = rng.uniform(left, right)
            wmax = min(c - lo, hi - c)
            w = rng.uniform(0.2, 0.95) * wmax
            amp = rng.uniform(0.2, 1.0)
            if i > 0 and rng.random() < 0.4:
                amp = -amp
            bumps.append((c, w, amp))
        draws.append(bumps)
    k = max((len(d) for d in draws), default=1)
    padded = [d + [(d[0][0], d[0][1], 0.0)] * (k - len(d)) for d in draws]
    params = np.array(padded, dtype=float).reshape(count, k, 3)
    return Bumps(*np.ascontiguousarray(params.transpose(2, 1, 0)))


def random_profile(rng: np.random.Generator, interval: tuple[float, float],
                   max_bumps: int = 4) -> Profile:
    """Random admissible test profile: a sum of smooth bumps supported
    strictly inside the open interval (improper ends are truncated)."""
    return random_bumps(rng, interval, 1, max_bumps).profile(0)


def power_profile(exponent: float, support: tuple[float, float],
                  scale: float = 1.0) -> Profile:
    """r -> scale * r^exponent with analytic derivative (not compactly supported)."""
    g, s = float(exponent), float(scale)
    return Profile(
        lambda r: s * np.asarray(r, dtype=float) ** g,
        lambda r: s * g * np.asarray(r, dtype=float) ** (g - 1.0),
        support,
        compactly_supported=False,
    )
