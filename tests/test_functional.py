import hashlib
import math

import numpy as np
import pytest

from hardylab.functional import (_SAMPLE_TOL, InvalidProfileError,
                                 _reduce_batch, random_profile_slacks,
                                 reduce_radial_functional)
from hardylab.profiles import (Bumps, Profile, random_bumps, random_profile,
                               smooth_bump)
from hardylab.quadrature import QuadratureError, integrate_batch
from hardylab.scenarios import (DEFAULT_SEED, CheckFailure,
                                ParameterDomainError, scenario_catalog)

from oracles import bump_quotient_mp, composite_gauss, scaled


def _sin_profile():
    return Profile(
        lambda r: np.sin(np.pi * np.asarray(r, float)),
        lambda r: np.pi * np.cos(np.pi * np.asarray(r, float)),
        (0.0, 1.0),
    )


def test_power_sin_profile_matches_oracle():
    # frozen via composite Gauss-Legendre: quotient = pi^2/3 + 1/2
    sc = scenario_catalog("power", Q=3.0, p=2.0, theta=1.0)
    red = reduce_radial_functional(sc, _sin_profile())
    oracle_num = composite_gauss(
        lambda r: r ** 2 * (np.pi * np.cos(np.pi * r)) ** 2, 0.0, 1.0, 200, 24)
    oracle_den = composite_gauss(
        lambda r: np.sin(np.pi * r) ** 2, 0.0, 1.0, 200, 24)
    assert red.numerator == pytest.approx(oracle_num, rel=1e-11)
    assert red.denominator == pytest.approx(oracle_den, rel=1e-11)
    assert red.quotient == pytest.approx(math.pi ** 2 / 3.0 + 0.5, rel=1e-11)
    assert red.quotient >= 0.25 and math.isfinite(red.quotient)


def test_rescaling_invariance():
    sc = scenario_catalog("power", Q=5.0, p=2.0, theta=1.0)
    phi = random_profile(np.random.default_rng(5), sc.pair.interval)
    q1 = reduce_radial_functional(sc, phi).quotient
    for c in (2.0, -1.0, 10.0):
        q2 = reduce_radial_functional(sc, scaled(phi, c)).quotient
        assert q2 == pytest.approx(q1, rel=1e-12)


def test_quotient_at_least_sharp_constant_small_sample():
    for name, kwargs in (("power", dict(Q=5.0, p=2.0, theta=1.0)),
                         ("cylindrical", dict(m=3, p=2.0, theta=1.0)),
                         ("strip", dict(theta=1.0)),
                         ("antisymmetric", dict(N=3, theta=1.0))):
        sc = scenario_catalog(name, **kwargs)
        rows = random_profile_slacks(sc, 25, seed=123)
        for row in rows:
            assert row["slack"] >= -1e-8, (name, row)
            if math.isfinite(row["quotient"]):
                assert row["quotient"] >= sc.sharp_constant * (1 - 1e-8)


def test_sign_changing_weight_slack():
    sc = scenario_catalog("gaussian_b", p=2.0, theta=1.0, alpha=2.0, beta=2.0,
                          Q=5.0)
    rng = np.random.default_rng(9)
    for _ in range(10):
        phi = random_profile(rng, sc.pair.interval)
        red = reduce_radial_functional(sc, phi)
        assert red.slack(sc.sharp_constant) >= -1e-9


def test_denominator_sign_handling():
    sc = scenario_catalog("gaussian_b", p=2.0, theta=1.0, alpha=2.0, beta=2.0,
                          Q=5.0)
    # support where W < 0 only: r^-2 < 2/3 r  <=>  r > (3/2)^(1/3)
    phi = smooth_bump(6.0, 1.5)
    red = reduce_radial_functional(sc, phi)
    assert red.denominator < 0.0
    assert red.quotient == math.inf
    assert red.numerator - sc.sharp_constant * red.denominator >= 0.0


def test_nonnegative_weight_rejects_trivial_profile():
    # a zero denominator under W >= 0 is a check that cannot be carried
    # out (exit 1), not bad input
    sc = scenario_catalog("power", Q=5.0, p=2.0, theta=1.0)
    zero = Profile(lambda r: np.zeros_like(np.asarray(r, float)),
                   lambda r: np.zeros_like(np.asarray(r, float)),
                   (1.0, 2.0))
    with pytest.raises(CheckFailure, match="denominator 0.0 is nonpositive"):
        reduce_radial_functional(sc, zero)


def test_support_outside_interval_rejected():
    sc = scenario_catalog("annulus", Q=3.0, p=2.0, theta=1.0, a=1.0, b=math.e)
    with pytest.raises(InvalidProfileError):
        reduce_radial_functional(sc, smooth_bump(5.0, 0.5))


def test_gaussian_a_standard_measure_rearrangement():
    # with alpha = beta = 2 the two-term inequality rearranges to
    # num + (Q/2) int r^(Q-1) e^(-r^2/2) phi^2  >=  (1/4) int r^(Q+1) e^(-r^2/2) phi^2
    sc = scenario_catalog("gaussian_a", p=2.0, alpha=2.0, beta=2.0, Q=3.0)
    rng = np.random.default_rng(12)
    for _ in range(10):
        phi = random_profile(rng, (0.0, 8.0))
        red = reduce_radial_functional(sc, phi)

        def mass(r):
            return r ** 2 * np.exp(-r ** 2 / 2.0) * phi.value(r) ** 2

        from hardylab.quadrature import integrate_adaptive
        lo, hi = phi.support
        zero = integrate_adaptive(lambda r: mass(r), lo, hi, tol=0.0,
                                  rel_tol=1e-10).value
        second = integrate_adaptive(lambda r: r ** 2 * mass(r), lo, hi,
                                    tol=0.0, rel_tol=1e-10).value
        lhs = red.numerator + 1.5 * zero
        rhs = 0.25 * second
        assert lhs >= rhs * (1.0 - 1e-9)


def test_antisymmetric_numerator_carries_sphere_term():
    sc = scenario_catalog("antisymmetric", N=3, theta=1.0)
    phi = smooth_bump(1.0, 0.5)
    red = reduce_radial_functional(sc, phi)
    plain = scenario_catalog("power", Q=3.0, p=2.0, theta=1.0)
    red_plain = reduce_radial_functional(plain, phi)
    extra = composite_gauss(
        lambda r: 12.0 * r ** 2 * r ** (-2.0) * phi.value(r) ** 2,
        0.5, 1.5, 100, 20)
    assert red.numerator == pytest.approx(red_plain.numerator + extra, rel=1e-9)


def test_random_profile_rows_do_not_depend_on_batch_mates():
    for name, kwargs in (("power", dict(Q=5.0, p=3.0, theta=1.0)),
                         ("gaussian_b", dict(p=2.0, theta=1.0, alpha=2.0,
                                             beta=2.0, Q=5.0)),
                         ("antisymmetric", dict(N=3, theta=1.0))):
        sc = scenario_catalog(name, **kwargs)
        few = random_profile_slacks(sc, 10, seed=31)
        many = random_profile_slacks(sc, 40, seed=31)
        assert few == many[:10]
        # and a profile reduced on its own gives its batch row
        phi = random_bumps(np.random.default_rng(31), sc.pair.interval, 3).profile(2)
        red = reduce_radial_functional(sc, phi, tol=1e-9)
        assert (red.quotient, red.slack(sc.sharp_constant)) \
            == (many[2]["quotient"], many[2]["slack"])


def test_bump_profile_quotients_match_mpmath():
    # power at Q = 5, theta = 1: V = 1, W = r^-p and the measure r^4. Seed
    # 1's profile 0 is two bumps, profile 1 three with a sign change. The
    # sampled quotients meet their 1e-9 relative target against a 30-digit
    # oracle, split at the bump edges alone for p = 2 and on 16 more pieces
    # for p = 3, where |phi|^3 and |phi'|^3 have kinks (the gap there is
    # 1.3e-11 with 16 pieces and 5.8e-10 without)
    bumps = random_bumps(np.random.default_rng(1), (0.0, math.inf), 2)
    for p, pieces in ((2.0, 1), (3.0, 16)):
        sc = scenario_catalog("power", Q=5.0, p=p, theta=1.0)
        for i, row in enumerate(random_profile_slacks(sc, 2, seed=1)):
            live = bumps.amplitudes[:, i] != 0.0
            oracle = bump_quotient_mp(
                zip(bumps.centers[live, i].tolist(),
                    bumps.halfwidths[live, i].tolist(),
                    bumps.amplitudes[live, i].tolist()), 5.0, p, pieces)
            assert abs(row["quotient"] / float(oracle) - 1.0) <= 1e-9


def test_one_profile_is_one_kernel_call(monkeypatch):
    import hardylab.functional as functional
    calls = []

    def counting(*args, **kwargs):
        est = integrate_batch(*args, **kwargs)
        calls.append(est.value.size)
        return est

    monkeypatch.setattr(functional, "integrate_batch", counting)
    for name, kwargs, owners in (("power", dict(Q=5.0, p=2.0, theta=1.0), 2),
                                 ("antisymmetric", dict(N=3, theta=1.0), 3)):
        calls.clear()
        reduce_radial_functional(scenario_catalog(name, **kwargs),
                                 smooth_bump(1.0, 0.5))
        assert calls == [owners]


def _loop_error(sc, bumps):
    """The error a loop reducing the profiles one by one raises first."""
    for i in range(len(bumps.supports)):
        try:
            reduce_radial_functional(sc, bumps.profile(i), tol=1e-9)
        except (InvalidProfileError, QuadratureError) as err:
            return err
    return None


def _reduce_all(sc, bumps):
    return _reduce_batch(sc, bumps.supports, bumps.knots, bumps.value,
                         bumps.derivative, 1e-9)


def test_kernel_drops_knots_outside_a_profile():
    # the reducer passes its knots unfiltered: points outside each profile's
    # support, on its ends and repeated leave every result's bits unchanged
    for name, kwargs in (("power", dict(Q=5.0, p=3.0, theta=1.0)),
                         ("antisymmetric", dict(N=3, theta=1.0))):
        sc = scenario_catalog(name, **kwargs)
        bumps = random_bumps(np.random.default_rng(5), sc.pair.interval, 12)
        noisy = [(lo - 1.0, *k, lo, hi, *k[:1], 0.0, hi + 1.0, lo)
                 for k, (lo, hi) in zip(bumps.knots, bumps.supports)]

        def bits(knots):
            reduced = _reduce_batch(sc, bumps.supports, knots, bumps.value,
                                    bumps.derivative, 1e-9)
            return np.array([[r.numerator, r.denominator, r.quotient]
                             for r in reduced]).tobytes()

        assert bits(noisy) == bits(bumps.knots)


def test_batch_errors_name_the_lowest_index_profile():
    sc = scenario_catalog("annulus", Q=3.0, p=2.0, theta=1.0, a=1.0, b=math.e)
    # profiles 1 and 3 lie outside the interval (1, e)
    outside = Bumps(np.array([[1.5, 10.5, 2.0, 20.5]]),
                    np.array([[0.3, 0.5, 0.4, 0.5]]), np.ones((1, 4)))
    with pytest.raises(InvalidProfileError) as err:
        _reduce_all(sc, outside)
    assert "(10.0, 11.0)" in str(err.value)
    assert str(err.value) == str(_loop_error(sc, outside))
    # profiles 1 and 2 have a NaN amplitude, so their integrands fail
    failing = Bumps(np.array([[1.5, 2.2, 1.8, 2.0]]),
                    np.array([[0.3, 0.4, 0.5, 0.4]]),
                    np.array([[1.0, math.nan, math.nan, 1.0]]))
    with pytest.raises(QuadratureError) as err:
        _reduce_all(sc, failing)
    assert "non-finite integrand value at x=" in str(err.value)
    assert str(err.value) == str(_loop_error(sc, failing))
    # an invalid profile ahead of a failing one is the one named
    mixed = Bumps(np.array([[1.5, 2.2, 10.5]]), np.array([[0.3, 0.4, 0.5]]),
                  np.array([[1.0, math.nan, 1.0]]))
    with pytest.raises(QuadratureError):
        _reduce_all(sc, mixed)
    assert isinstance(_loop_error(sc, mixed), QuadratureError)
    # a failing profile behind an invalid one is never integrated
    behind = Bumps(np.array([[1.5, 10.5, 2.2]]), np.array([[0.3, 0.5, 0.4]]),
                   np.array([[1.0, 1.0, math.nan]]))
    with pytest.raises(InvalidProfileError):
        _reduce_all(sc, behind)
    assert isinstance(_loop_error(sc, behind), InvalidProfileError)


def test_profile_count_must_be_positive():
    sc = scenario_catalog("power", Q=5.0, p=2.0, theta=1.0)
    for count in (0, -3):
        with pytest.raises(ParameterDomainError, match="profile count"):
            random_profile_slacks(sc, count, seed=1)


# the five random-profile families of the benchmark, plus improved_weight
_PINNED_FAMILIES = (
    ("power", dict(Q=5.0, p=2.0, theta=1.0)),
    ("power", dict(Q=5.0, p=3.0, theta=1.0)),
    ("gaussian_b", dict(p=2.0, theta=1.0, alpha=2.0, beta=2.0, Q=5.0)),
    ("log_radial", dict(p=2.0, theta=0.0, R=1.0)),
    ("annulus", dict(Q=3.0, p=2.0, theta=1.0, a=1.0, b=math.e)),
    ("improved_weight", dict(Q=5.0, p=2.0)),
    ("improved_weight", dict(Q=5.0, p=3.0)),
)


def test_bump_batch_functionals_are_pinned():
    # the numerator and denominator bits of 40 seeded profiles per family,
    # as random_profile_slacks reduces them: finite bump quotients that no
    # README report shows (its rayleigh rows all read inf)
    digest = hashlib.sha256()
    for name, kw in _PINNED_FAMILIES:
        sc = scenario_catalog(name, **kw)
        bumps = random_bumps(np.random.default_rng(DEFAULT_SEED),
                             sc.pair.interval, 40)
        for red in _reduce_batch(sc, bumps.supports, bumps.knots, bumps.value,
                                 bumps.derivative, _SAMPLE_TOL):
            digest.update(np.array([red.numerator, red.denominator]).tobytes())
    assert digest.hexdigest() == \
        "ee4eca31f63b448d8fc4c9dc9c9f239cdda1a5a0088899db4d66137270338be9"
