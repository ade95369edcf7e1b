import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from hardylab.profiles import (Bumps, Profile, power_profile, random_bumps,
                               random_profile, smooth_bump)
from hardylab.quadrature import _NODES

from oracles import check_derivative, dense_bump_sum, scalar_bump_draws


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


def _same_bits(got, want):
    """Equal under ==, NaN to NaN, with equal bits up to the sign of a zero."""
    if type(got) is not type(want):
        return False
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape
            and np.array_equal(got, want, equal_nan=True)
            and np.array_equal(np.abs(got).view(np.uint64),
                               np.abs(want).view(np.uint64)))


@st.composite
def _bump_batches(draw):
    """A batch of k bump sums, some padded with zero-amplitude copies of
    their first bump, a width sign flipped here and there."""
    k, count = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    shape = (k, count)
    c = draw(hnp.arrays(float, shape, elements=st.floats(-5.0, 15.0)))
    w = draw(hnp.arrays(float, shape, elements=st.floats(1e-3, 4.0)))
    a = draw(hnp.arrays(float, shape, elements=st.floats(-1.0, 1.0)))
    w *= np.where(draw(hnp.arrays(bool, shape)), -1.0, 1.0)
    for i in range(count):
        n = draw(st.integers(1, k))
        c[n:, i], w[n:, i], a[n:, i] = c[0, i], w[0, i], 0.0
    return Bumps(c, w, a)


@st.composite
def _node_row(draw, bumps):
    """15 nodes of one kernel-like interval: its ends on a bump edge, one
    float off it or anywhere, its width down to the kernel's stuck 1e-13,
    the nodes in any order, some NaN or infinite."""
    j, i = (draw(st.integers(0, s - 1)) for s in bumps.centers.shape)
    edge = bumps.centers[j, i] + draw(st.sampled_from((-1.0, 1.0))) \
        * bumps.halfwidths[j, i]
    end = draw(st.one_of(
        st.sampled_from((edge, np.nextafter(edge, -np.inf),
                         np.nextafter(edge, np.inf))),
        st.floats(-30.0, 30.0)))
    width = draw(st.sampled_from((2e-13 * max(abs(end), 1e-3), 1e-6, 0.1,
                                  1.0, 10.0)))
    lo, hi = (end, end + width) if draw(st.booleans()) else (end - width, end)
    row = lo + (hi - lo) * (_NODES + 1.0) / 2.0
    row[0], row[-1] = lo, hi
    row = row[draw(st.permutations(range(15)))]
    for _ in range(draw(st.integers(0, 2))):
        row[draw(st.integers(0, 14))] = draw(
            st.sampled_from((math.nan, math.inf, -math.inf)))
    return i, row


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(data=st.data(), bumps=_bump_batches())
def test_live_pair_sums_equal_the_dense_sum(data, bumps):
    drawn = data.draw(st.lists(_node_row(bumps), max_size=6))
    rows = np.array([i for i, _ in drawn], dtype=int)
    r = np.array([row for _, row in drawn]).reshape(-1, 15)
    i = data.draw(st.integers(0, bumps.centers.shape[1] - 1))
    flat = r.ravel()
    calls = [(r, rows),                     # kernel node rows, maybe none
             (r[:, :0], rows),              # rows without points
             (flat, i), (flat[:0], i),      # one profile on a grid
             (np.asarray(flat[0] if flat.size else 1.0), i)]   # 0-d
    for derivative in (False, True):
        evaluate = bumps.derivative if derivative else bumps.value
        for x, which in calls:
            assert _same_bits(evaluate(x, which),
                              dense_bump_sum(bumps, x, which, derivative))


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
