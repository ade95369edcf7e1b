"""Reduced 1-D Rayleigh functionals.

For a d-radial test function u = phi(d), the coarea scaling of gauge balls
turns the directional quotient into

    int r^(Q-1) V |phi'|^p dr  /  int r^(Q-1) W |phi|^p dr,

with the gauge-ball constant cancelling between numerator and denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .profiles import Profile, random_profile
from .quadrature import integrate_adaptive
from .scenarios import Scenario

__all__ = ["ReducedFunctional", "InvalidProfileError", "reduce_radial_functional",
           "inequality_slack", "random_profile_slacks"]


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


def _bounds_and_flags(scenario: Scenario, phi: Profile):
    rbar, rmax = scenario.pair.interval
    lo = max(rbar, phi.support[0])
    hi = min(rmax, phi.support[1])
    if not lo < hi:
        raise InvalidProfileError(
            f"profile support {phi.support} lies outside the scenario "
            f"interval {scenario.pair.interval}")
    sing_left = lo <= rbar or lo <= 0.0
    sing_right = math.isinf(hi) or hi >= rmax
    points = [k for k in phi.knots if lo < k < hi]
    return lo, hi, sing_left, sing_right, points


def reduce_radial_functional(scenario: Scenario, phi: Profile,
                             tol: float = 1e-10) -> ReducedFunctional:
    """Reduced Rayleigh quotient of a radial profile for one scenario.

    The quotient is numerator/denominator when the denominator is positive;
    a nonpositive denominator is an invalid profile for nonnegative-W
    scenarios and yields quotient = +inf otherwise (the inequality is then
    vacuously satisfied since the numerator is nonnegative).
    """
    p = scenario.exponents.p
    mu = scenario.exponents.measure_exponent
    V, W = scenario.pair.V, scenario.pair.W
    val, der = phi.value, phi.derivative
    lo, hi, s_left, s_right, points = _bounds_and_flags(scenario, phi)

    def num_integrand(r):
        r = np.asarray(r, dtype=float)
        return r ** mu * V(r) * np.abs(der(r)) ** p

    def den_integrand(r):
        r = np.asarray(r, dtype=float)
        return r ** mu * W(r) * np.abs(val(r)) ** p

    # tol is relative-only here: the weights can underflow to ~1e-90 scales
    # on far-out supports, where any fixed absolute target is meaningless
    kw = dict(tol=0.0, rel_tol=tol, singular_left=s_left,
              singular_right=s_right, points=points)
    num = integrate_adaptive(num_integrand, lo, hi, **kw).value
    if scenario.numerator_zero_order is not None:
        zo = scenario.numerator_zero_order

        def zo_integrand(r):
            r = np.asarray(r, dtype=float)
            return r ** mu * zo(r) * np.abs(val(r)) ** p

        num += integrate_adaptive(zo_integrand, lo, hi, **kw).value
    den = integrate_adaptive(den_integrand, lo, hi, **kw).value
    if den <= 0.0:
        if scenario.pair.W_nonnegative:
            raise InvalidProfileError(
                f"denominator {den} is nonpositive although W >= 0; "
                "the profile is numerically trivial on the interval")
        quotient = math.inf
    else:
        quotient = num / den
    return ReducedFunctional(num, den, quotient)


def inequality_slack(scenario: Scenario, phi: Profile,
                     tol: float = 1e-10) -> float:
    """Normalized slack of numerator >= sharp_constant * denominator.

    Sign-robust for weight pairs whose W changes sign: the inequality claim
    is on the difference, not the quotient, and the slack is nonnegative up
    to quadrature noise whenever the theorem holds.
    """
    red = reduce_radial_functional(scenario, phi, tol=tol)
    return red.slack(scenario.sharp_constant)


def random_profile_slacks(scenario: Scenario, count: int, seed: int,
                          tol: float = 1e-9) -> list[dict]:
    """Inequality sampling: quotient and normalized slack for seeded random
    bump profiles supported inside the scenario interval, drawn in order
    from one seeded stream (deterministic)."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(count):
        phi = random_profile(rng, scenario.pair.interval)
        red = reduce_radial_functional(scenario, phi, tol=tol)
        rows.append({"index": i, "quotient": red.quotient,
                     "slack": red.slack(scenario.sharp_constant)})
    return rows
