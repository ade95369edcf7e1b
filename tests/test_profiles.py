import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hardylab.profiles import (Bumps, Profile, power_profile, random_bumps,
                               random_profile, smooth_bump)

from oracles import check_derivative, scalar_bump_draws


def test_bump_support_and_values():
    b = smooth_bump(1.0, 0.5, 2.0)
    assert b.support == (0.5, 1.5)
    r = np.array([0.4, 0.5, 1.0, 1.5, 1.6])
    vals = b.value(r)
    assert vals[0] == 0.0 and vals[1] == 0.0 and vals[3] == 0.0 and vals[4] == 0.0
    assert vals[2] == pytest.approx(2.0)


def test_bump_derivative_consistent_with_fd():
    b = smooth_bump(2.0, 1.0, -0.7)
    assert check_derivative(b, tol=1e-6) < 1e-6


def test_product_rule_and_knots():
    b1 = smooth_bump(1.0, 0.5)
    b2 = Profile(lambda r: np.asarray(r) ** 2.0,
                 lambda r: 2.0 * np.asarray(r),
                 (0.0, 10.0), knots=(3.0,))
    prod = b1 * b2
    assert prod.support == (0.5, 1.5)
    assert prod.knots == (3.0,)
    r = np.linspace(0.6, 1.4, 50)
    h = 1e-7
    fd = (prod.value(r + h) - prod.value(r - h)) / (2 * h)
    assert np.max(np.abs(fd - prod.derivative(r))) < 1e-5


def test_disjoint_supports_rejected():
    with pytest.raises(ValueError):
        smooth_bump(1.0, 0.2) * smooth_bump(5.0, 0.2)


def test_random_profile_inside_interval():
    rng = np.random.default_rng(3)
    for _ in range(20):
        phi = random_profile(rng, (0.0, np.inf))
        lo, hi = phi.support
        assert lo > 0.0 and hi < 31.0
        assert phi.value(np.array([lo, hi])).tolist() == [0.0, 0.0]
        assert check_derivative(phi, tol=1e-4) < 1e-4
    for _ in range(10):
        phi = random_profile(rng, (1.0, np.e))
        assert phi.support[0] >= 1.0 and phi.support[1] <= np.e


def test_random_profile_deterministic_given_seed():
    r = np.linspace(0.1, 20.0, 64)
    a = random_profile(np.random.default_rng(11), (0.0, np.inf)).value(r)
    b = random_profile(np.random.default_rng(11), (0.0, np.inf)).value(r)
    assert np.array_equal(a, b)


def test_power_profile_derivative():
    p = power_profile(-1.5, (0.0, np.inf))
    assert p.derivative(np.array([1.0]))[0] == pytest.approx(-1.5)


def _hand_drawn(rng, interval, max_bumps=4):
    """random_profile's draws, in its documented rng order, summed as
    separately built smooth bumps."""
    lo = max(interval[0], 1e-6)
    hi = interval[1] if np.isfinite(interval[1]) else 30.0
    left, right = lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo)
    parts = []
    for i in range(int(rng.integers(1, max_bumps + 1))):
        c = rng.uniform(left, right)
        w = rng.uniform(0.2, 0.95) * min(c - lo, hi - c)
        amp = rng.uniform(0.2, 1.0)
        if i > 0 and rng.random() < 0.4:
            amp = -amp
        parts.append(smooth_bump(c, w, amp))
    return parts


def test_random_profile_is_bitwise_a_sum_of_smooth_bumps():
    r = np.linspace(-1.0, 32.0, 4001)
    for seed in range(12):
        for interval in ((0.0, np.inf), (1.0, np.e), (0.05, 2.5)):
            phi = random_profile(np.random.default_rng(seed), interval)
            parts = _hand_drawn(np.random.default_rng(seed), interval)
            assert np.array_equal(phi.value(r), sum(p.value(r) for p in parts))
            assert np.array_equal(phi.derivative(r),
                                  sum(p.derivative(r) for p in parts))
            assert phi.support == (min(p.support[0] for p in parts),
                                   max(p.support[1] for p in parts))


def test_bump_batch_rows_equal_successive_random_profiles():
    r = np.linspace(0.0, 31.0, 3001)
    for seed in (0, 5):
        batch = random_bumps(np.random.default_rng(seed), (0.0, np.inf), 9)
        rng = np.random.default_rng(seed)
        assert len(batch.supports) == 9
        for i in range(9):
            phi = random_profile(rng, (0.0, np.inf))
            rows = np.full(r.size, i)
            assert np.array_equal(batch.value(r, rows), phi.value(r))
            assert np.array_equal(batch.derivative(r, rows), phi.derivative(r))
            assert batch.supports[i] == phi.support
        # one row index per node row broadcasts over the row's nodes
        nodes = np.linspace(1.0, 29.0, 45).reshape(3, 15)
        got = batch.value(nodes, np.array([4, 0, 8]))
        for j, i in enumerate((4, 0, 8)):
            assert np.array_equal(got[j], batch.profile(i).value(nodes[j]))


_INTERVALS = st.one_of(
    st.tuples(st.floats(0.0, 10.0), st.floats(1e-3, 100.0)).map(
        lambda t: (t[0], t[0] + t[1])),
    st.tuples(st.floats(0.0, 20.0), st.just(math.inf)))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 50),
       interval=_INTERVALS)
def test_bulk_draws_equal_scalar_draws(seed, count, interval):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    batch = random_bumps(rng, interval, count)
    draws = scalar_bump_draws(ref, interval, count)
    k = max(map(len, draws))
    assert batch.centers.shape == (k, count)
    for i, bumps in enumerate(draws):
        pads = [(bumps[0][0], bumps[0][1], 0.0)] * (k - len(bumps))
        assert list(zip(batch.centers[:, i].tolist(),
                        batch.halfwidths[:, i].tolist(),
                        batch.amplitudes[:, i].tolist())) == bumps + pads
    # and the stream goes on where the scalar draws leave it
    assert rng.bit_generator.state == ref.bit_generator.state


def test_bump_edges_inside_the_support_are_knots():
    assert smooth_bump(1.0, 0.5).knots == ()
    # profile 1 is one bump padded with a zero-amplitude copy of it
    bumps = Bumps(np.array([[1.0, 5.0], [2.0, 5.0]]),
                  np.array([[0.5, 1.0], [0.75, 1.0]]),
                  np.array([[1.0, 0.7], [-0.5, 0.0]]))
    assert bumps.supports == [(0.5, 2.75), (4.0, 6.0)]
    assert bumps.knots == [(1.25, 1.5), ()]
    batch = random_bumps(np.random.default_rng(2), (0.0, np.inf), 30)
    for i, (lo, hi) in enumerate(batch.supports):
        live = batch.amplitudes[:, i] != 0.0
        c, w = batch.centers[live, i], batch.halfwidths[live, i]
        edges = set((c - w).tolist()) | set((c + w).tolist())
        assert batch.knots[i] == tuple(sorted(e for e in edges if lo < e < hi))
    for b in (bumps, batch):
        for i in range(len(b.supports)):
            assert b.profile(i).knots == b.knots[i]
