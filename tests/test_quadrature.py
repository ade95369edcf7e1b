import math
import re

import numpy as np
import pytest

from hardylab.quadrature import (QuadratureError, integrate_adaptive,
                                 integrate_batch)

from oracles import decades_gauss, graded_gauss


def test_sqrt_singularity():
    est = integrate_adaptive(lambda r: 1.0 / np.sqrt(r), 0.0, 1.0,
                             tol=1e-10, singular_left=True)
    assert abs(est.value - 2.0) <= max(1e-10, est.error_estimate)
    assert est.error_estimate >= 0
    assert est.subdivisions >= 1


def test_beta_function():
    est = integrate_adaptive(lambda s: s * (1.0 - s), 0.0, 1.0)
    assert math.isclose(est.value, 1.0 / 6.0, rel_tol=1e-12)


def test_log_antiderivative():
    est = integrate_adaptive(lambda r: 1.0 / r, 1.0, math.e)
    assert math.isclose(est.value, 1.0, rel_tol=1e-12)


def test_improper_upper_limit():
    est = integrate_adaptive(lambda r: np.exp(-r), 0.0, math.inf)
    assert math.isclose(est.value, 1.0, rel_tol=1e-10)
    est2 = integrate_adaptive(lambda r: 1.0 / (1.0 + r) ** 2, 1.0, math.inf)
    assert math.isclose(est2.value, 0.5, rel_tol=1e-10)


def test_multi_decade_spike_not_missed():
    # mass concentrated at the left of an 8-decade interval, flat elsewhere
    f = lambda r: np.exp(-0.5 * r * r) / r
    est = integrate_adaptive(f, 2e-4, 5e3, tol=1e-12, rel_tol=1e-12)
    ref = decades_gauss(f, 2e-4, 5e3, per_decade=16, nodes=24)
    assert math.isclose(est.value, ref, rel_tol=1e-10)


def test_matches_graded_oracle_on_power_singularity():
    for a in (-0.5, -0.3, -0.9):
        est = integrate_adaptive(lambda r, a=a: r ** a, 0.0, 2.0,
                                 singular_left=True)
        exact = 2.0 ** (a + 1.0) / (a + 1.0)
        levels = max(60, int(45.0 / (1.0 + a)))
        oracle = graded_gauss(lambda r, a=a: r ** a, 0.0, 2.0, "left",
                              levels=levels)
        assert math.isclose(est.value, exact, rel_tol=1e-9)
        assert math.isclose(oracle, exact, rel_tol=1e-8)


def test_both_endpoints_singular():
    # the 1-side singularity sits on a coarse float grid: double sampling
    # cannot see inside the last ~1e-13 sliver, so ask for 1e-5 and check
    # the returned error bound stays honest
    est = integrate_adaptive(lambda r: 1.0 / np.sqrt(r * (1.0 - r)), 0.0, 1.0,
                             tol=1e-5, rel_tol=1e-5,
                             singular_left=True, singular_right=True)
    assert abs(est.value - math.pi) <= max(1e-5, est.error_estimate)
    assert est.error_estimate < 1e-3


def test_interior_split_points():
    f = lambda r: np.abs(r - 0.3) ** 0.5
    est = integrate_adaptive(f, 0.0, 1.0, points=[0.3])
    exact = (0.3 ** 1.5 + 0.7 ** 1.5) / 1.5
    assert math.isclose(est.value, exact, rel_tol=1e-10)


def test_invalid_bounds_rejected():
    with pytest.raises(ValueError):
        integrate_adaptive(lambda r: r, 1.0, 1.0)


def test_nonfinite_integrand_reported():
    def f(r):
        shifted = np.asarray(r) - 0.5
        return np.where(shifted == 0.0, np.nan, 1.0) / np.where(
            shifted == 0.0, 1.0, shifted)

    with pytest.raises(QuadratureError, match=r"at x=0\.5$"):
        integrate_adaptive(f, 0.0, 1.0)


def test_nonconvergence_carries_partial_estimate():
    with pytest.raises(QuadratureError) as err:
        integrate_adaptive(lambda r: 1.0 / np.sqrt(np.abs(r - 0.37)), 0.0, 1.0,
                           tol=1e-13, rel_tol=1e-13, max_subdivisions=8)
    assert err.value.partial is not None
    assert err.value.partial.subdivisions >= 8
    # the partial value is still in the right ballpark
    exact = 2.0 * (math.sqrt(0.37) + math.sqrt(0.63))
    assert abs(err.value.partial.value - exact) < 0.5


# the integrands above, each with its own bounds, flags and split points
_BATCH = [
    (lambda r: 1.0 / np.sqrt(r), 0.0, 1.0,
     dict(singular_left=True)),
    (lambda r: r ** -0.5, 0.0, 2.0, dict(singular_left=True)),
    (lambda r: np.exp(-r), 0.0, math.inf, {}),
    (lambda r: 1.0 / (1.0 + r) ** 2, 1.0, math.inf, {}),
    (lambda r: np.exp(-0.5 * r * r) / r, 2e-4, 5e3, {}),
    (lambda r: np.abs(r - 0.3) ** 0.5, 0.0, 1.0, dict(points=[0.3])),
    (lambda r: 1.0 / np.sqrt(r * (1.0 - r)), 0.0, 1.0,
     dict(singular_left=True, singular_right=True)),
]


def _batched(funcs):
    def f(x, owner):
        out = np.empty_like(x)
        for k, g in enumerate(funcs):
            rows = owner == k
            if rows.any():
                out[rows] = g(x[rows])
        return out
    return f


def _batch_call(cases, **kw):
    return integrate_batch(
        _batched([c[0] for c in cases]), [c[1] for c in cases],
        [c[2] for c in cases],
        [c[3].get("singular_left", False) for c in cases],
        [c[3].get("singular_right", False) for c in cases],
        [c[3].get("points", ()) for c in cases], **kw)


def test_batch_matches_single_calls():
    tol = dict(tol=1e-11, rel_tol=1e-11)
    ests = _batch_call(_BATCH, **tol)
    for (g, a, b, kw), est in zip(_BATCH, ests):
        single = integrate_adaptive(g, a, b, **tol, **kw)
        assert abs(est.value - single.value) <= 4 * np.spacing(abs(single.value))
        assert abs(est.error_estimate - single.error_estimate) \
            <= 4 * np.spacing(single.error_estimate)
        assert est.subdivisions == single.subdivisions
    # and each owner's result does not depend on its batch mates
    for k in range(len(_BATCH)):
        alone = _batch_call(_BATCH[k:k + 1], **tol)[0]
        assert (alone.value, alone.subdivisions) \
            == (ests[k].value, ests[k].subdivisions)


def test_batch_nonconvergence_is_per_owner():
    hard = lambda r: 1.0 / np.sqrt(np.abs(r - 0.37))
    cases = [(lambda s: s * (1.0 - s), 0.0, 1.0, {}), (hard, 0.0, 1.0, {})]
    kw = dict(tol=1e-13, rel_tol=1e-13, max_subdivisions=8)
    easy, failed = _batch_call(cases, **kw)
    assert math.isclose(easy.value, 1.0 / 6.0, rel_tol=1e-12)
    assert isinstance(failed, QuadratureError)
    with pytest.raises(QuadratureError) as single:
        integrate_adaptive(hard, 0.0, 1.0, **kw)
    assert str(failed) == str(single.value)
    assert failed.partial == single.value.partial
    assert failed.partial.subdivisions >= 8


def test_batch_nonfinite_value_names_its_owner_and_r():
    def nan_at_half(r):
        shifted = np.asarray(r) - 0.5
        return np.where(shifted == 0.0, np.nan, 1.0) / np.where(
            shifted == 0.0, 1.0, shifted)

    fine, bad = _batch_call([(lambda r: r * r, 0.0, 1.0, {}),
                             (nan_at_half, 0.0, 1.0, {})])
    assert math.isclose(fine.value, 1.0 / 3.0, rel_tol=1e-12)
    assert isinstance(bad, QuadratureError)
    assert re.search(r"at x=0\.5$", str(bad))


def test_empty_batch():
    assert integrate_batch(lambda x, owner: x, [], [], [], [], []) == []
