"""Reduced 1-D Rayleigh functionals.

For a d-radial test function u = phi(d), the coarea scaling of gauge balls
turns the directional quotient into

    int r^(Q-1) V |phi'|^p dr  /  int r^(Q-1) W |phi|^p dr,

with the gauge-ball constant cancelling between numerator and denominator.

One routine reduces one profile or many: the numerator, zero-order and
denominator integrals of every profile go to one ``integrate_batch`` call, so
sampling many random bump profiles costs a few kernel sweeps instead of two
or three adaptive integrations per profile. Every profile's bounds and
singular-end flags are computed as arrays, and its knots go to the kernel
unfiltered: the kernel's seed mesh drops those outside the profile's bounds,
on them, repeated or NaN. ``reduce_radial_functional`` is its one-profile
case, one kernel call as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .profiles import Profile, random_bumps
from .quadrature import integrate_batch
from .scenarios import CheckFailure, ParameterDomainError, Scenario

__all__ = ["ReducedFunctional", "InvalidProfileError", "reduce_radial_functional",
           "random_profile_slacks", "slack_verdict"]

_SAMPLE_TOL = 1e-9      # relative target of each random-profile integral


class InvalidProfileError(ValueError):
    """Profile outside the functional's admissible class."""


@dataclass(frozen=True)
class ReducedFunctional:
    numerator: float
    denominator: float
    quotient: float

    def slack(self, c: float) -> float:
        """Normalized slack (num - c*den) / (|num| + |c*den|) of the claim
        num >= c*den; 0 when both terms vanish."""
        scale = abs(self.numerator) + abs(c * self.denominator)
        if scale == 0.0:
            return 0.0
        return (self.numerator - c * self.denominator) / scale


def _reduce_batch(scenario: Scenario, supports, knots, value, derivative,
                  tol: float) -> list[ReducedFunctional]:
    """Reduced functionals of one profile or a batch of them.

    value(r, rows) and derivative(r, rows) return the array of profile
    rows[j] at the points r[j, ...], in r's shape or raveled. All integrals
    go to one integrate_batch call, a single profile's two or three as well;
    every integral keeps its own adaptive target, so a profile's result does
    not depend on its batch mates. knots[i] are profile i's split points,
    passed to the kernel as they are. Only the profiles before the first one
    outside the scenario interval are reduced, and that profile's
    InvalidProfileError is raised after them; the kernel raises the failed
    integral of the lowest-index profile before any profile is reduced.
    """
    p = scenario.exponents.p
    mu = scenario.exponents.measure_exponent
    # integrand weights and the profile factor each carries, numerator first
    terms = [(scenario.pair.V, derivative)]
    if scenario.numerator_zero_order is not None:
        terms.append((scenario.numerator_zero_order, value))
    terms.append((scenario.pair.W, value))
    K = len(terms)

    def term(k, nodes, rows):
        weight, phi = terms[k]
        r = nodes.ravel()
        return r ** mu * weight(r) * np.abs(phi(nodes, rows).ravel()) ** p

    def integrand(x, owner):
        kind = owner % K
        out = np.empty_like(x)
        for k in range(K):
            m = (kind == k).nonzero()[0]
            if m.size:   # a profile callable need not accept empty input
                out[m] = term(k, x[m], owner[m] // K).reshape(m.size, -1)
        return out

    rbar, rmax = scenario.pair.interval
    bounds = np.array(supports, dtype=float).reshape(-1, 2)
    # fmax and fmin keep the interval end where a support end is NaN
    lo, hi = np.fmax(rbar, bounds[:, 0]), np.fmin(rmax, bounds[:, 1])
    invalid = ~(lo < hi)
    n = int(invalid.argmax()) if invalid.any() else invalid.size
    lo, hi = lo[:n], hi[:n]
    s_left = (lo <= rbar) | (lo <= 0.0)
    s_right = np.isinf(hi) | (hi >= rmax)
    # every profile's knots, NaN-padded to one array: the kernel drops the
    # ones outside a profile's bounds, on them, repeated or NaN
    width = max(map(len, knots[:n]), default=0)
    points = [[*k, *[math.nan] * (width - len(k))] for k in knots[:n]]
    # tol is relative-only here: the weights can underflow to ~1e-90 scales
    # on far-out supports, where any fixed absolute target is meaningless
    values = integrate_batch(integrand, lo.repeat(K), hi.repeat(K),
                             s_left.repeat(K), s_right.repeat(K),
                             np.repeat(points, K, axis=0), tol=0.0,
                             rel_tol=tol).value.reshape(-1, K)
    nums = values[:, 0].copy()
    with np.errstate(over="ignore"):   # a sum past the float range is inf
        for k in range(1, K - 1):
            nums += values[:, k]
    reduced = []
    for num, den in zip(nums.tolist(), values[:, -1].tolist()):
        if den <= 0.0:
            if scenario.pair.W_nonnegative:
                raise CheckFailure(
                    f"denominator {den} is nonpositive although W >= 0; "
                    "W |phi|^p is numerically zero on the profile's support")
            quotient = math.inf
        else:
            quotient = num / den
        reduced.append(ReducedFunctional(num, den, quotient))
    if n < len(supports):
        raise InvalidProfileError(
            f"profile support {supports[n]} lies outside the scenario "
            f"interval {scenario.pair.interval}")
    return reduced


def reduce_radial_functional(scenario: Scenario, phi: Profile,
                             tol: float = 1e-10) -> ReducedFunctional:
    """Reduced Rayleigh quotient of a radial profile for one scenario.

    The quotient is numerator/denominator when the denominator is positive;
    a nonpositive denominator is a CheckFailure for nonnegative-W scenarios
    (the weighted profile underflows, so nothing can be checked) and yields
    quotient = +inf otherwise (the inequality is then vacuously satisfied
    since the numerator is nonnegative).
    """
    def value(r, rows):
        return np.asarray(phi.value(r.ravel()))

    def derivative(r, rows):
        return np.asarray(phi.derivative(r.ravel()))

    (red,) = _reduce_batch(scenario, [phi.support], [phi.knots], value,
                           derivative, tol)
    return red


def random_profile_slacks(scenario: Scenario, count: int,
                          seed: int) -> list[dict]:
    """Inequality sampling: quotient and normalized slack for seeded random
    bump profiles supported inside the scenario interval, drawn in order
    from one seeded stream (deterministic) and reduced as one batch, every
    integral split at its profile's bump edges (``Bumps.knots``), as a
    profile reduced on its own is."""
    if count < 1:
        raise ParameterDomainError(f"profile count must be >= 1, got {count}")
    bumps = random_bumps(np.random.default_rng(seed), scenario.pair.interval,
                         count)
    reduced = _reduce_batch(scenario, bumps.supports, bumps.knots,
                            bumps.value, bumps.derivative, _SAMPLE_TOL)
    c = scenario.sharp_constant
    return [{"index": i, "quotient": red.quotient, "slack": red.slack(c)}
            for i, red in enumerate(reduced)]


def slack_verdict(scenario: Scenario, rows: list[dict]):
    """The rows' least slack, and a failure message unless it is >= -1e-8."""
    least = min(r["slack"] for r in rows)
    return least, None if least >= -1e-8 else (
        f"sampled quotient fell below the sharp constant for {scenario.name} "
        f"(min normalized slack {least})")
