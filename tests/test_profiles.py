import numpy as np
import pytest

from hardylab.profiles import (Profile, power_profile, random_bumps,
                               random_profile, smooth_bump)

from oracles import check_derivative


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
