import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hardylab.quadrature import (QuadratureError, _seed_mesh,
                                 integrate_adaptive, integrate_batch)
from hardylab.scenarios import ParameterDomainError

from oracles import decades_gauss, graded_gauss, seed_mesh_per_owner


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


def _padded(points):
    """Per-owner point lists as one (n, m) array, each row NaN-padded."""
    out = np.full((len(points), max(map(len, points), default=0)), math.nan)
    for row, mine in zip(out, points):
        row[:len(mine)] = mine
    return out


def _batch_call(cases, omit=False, **kw):
    """One kernel call over cases; omit passes no flags or points at all."""
    f, a, b = (_batched([c[0] for c in cases]), [c[1] for c in cases],
               [c[2] for c in cases])
    if omit:
        return integrate_batch(f, a, b, **kw)
    return integrate_batch(
        f, a, b, [c[3].get("singular_left", False) for c in cases],
        [c[3].get("singular_right", False) for c in cases],
        _padded([c[3].get("points", ()) for c in cases]), **kw)


def test_batch_matches_single_calls():
    tol = dict(tol=1e-11, rel_tol=1e-11)
    est = _batch_call(_BATCH, **tol)
    single = [integrate_adaptive(g, a, b, **tol, **kw)
              for g, a, b, kw in _BATCH]
    value, error, subdivisions = (
        np.array([getattr(s, field) for s in single])
        for field in ("value", "error_estimate", "subdivisions"))
    assert np.all(np.abs(est.value - value) <= 4 * np.spacing(np.abs(value)))
    assert np.all(np.abs(est.error_estimate - error)
                  <= 4 * np.spacing(error))
    assert np.array_equal(est.subdivisions, subdivisions)
    # and each owner's result does not depend on its batch mates
    for k in range(len(_BATCH)):
        alone = _batch_call(_BATCH[k:k + 1], **tol)
        assert (alone.value.tolist(), alone.subdivisions.tolist()) \
            == ([est.value[k]], [est.subdivisions[k]])
    # omitted flags and points are none: bit for bit the call with all-False
    # flags and an (n, 0) points array, the two improper owners included
    bare = [case[:3] + ({},) for case in _BATCH]
    explicit, omitted = (_batch_call(bare, omit=omit, **tol)
                         for omit in (False, True))
    assert np.isinf([case[2] for case in bare]).sum() == 2
    assert [x.tobytes() for x in omitted] == [x.tobytes() for x in explicit]


def test_batch_nonconvergence_is_per_owner():
    # owners 1 and 3 fail: the batch raises owner 1's error, the one its
    # own one-owner call raises, partial estimate included
    def spike(c):
        return lambda r: 1.0 / np.sqrt(np.abs(r - c))

    easy = (lambda s: s * (1.0 - s), 0.0, 1.0, {})
    kw = dict(tol=1e-13, rel_tol=1e-13, max_subdivisions=8)
    for first, later in ((0.37, 0.61), (0.61, 0.37)):
        cases = [easy, (spike(first), 0.0, 1.0, {}), easy,
                 (spike(later), 0.0, 1.0, {})]
        with pytest.raises(QuadratureError) as failed:
            _batch_call(cases, **kw)
        with pytest.raises(QuadratureError) as single:
            integrate_adaptive(spike(first), 0.0, 1.0, **kw)
        assert str(failed.value) == str(single.value)
        assert failed.value.partial == single.value.partial
        assert failed.value.partial.subdivisions >= 8
    alone = _batch_call([easy], **kw)
    assert alone.value.shape == (1,)
    assert math.isclose(alone.value[0], 1.0 / 6.0, rel_tol=1e-12)


def test_batch_nonfinite_value_names_its_owner_and_r():
    def nan_at_half(r):
        shifted = np.asarray(r) - 0.5
        return np.where(shifted == 0.0, np.nan, 1.0) / np.where(
            shifted == 0.0, 1.0, shifted)

    def nan_everywhere(r):
        return np.full_like(r, np.nan)

    # owner 3's first node is far below 0.5: the message is owner 1's
    with pytest.raises(QuadratureError, match=r"^non-finite integrand value "
                       r"at x=0\.5$"):
        _batch_call([(lambda r: r * r, 0.0, 1.0, {}),
                     (nan_at_half, 0.0, 1.0, {}),
                     (lambda r: r, 0.0, 1.0, {}),
                     (nan_everywhere, 0.0, 1.0, {})])


def test_empty_batch():
    est = integrate_batch(lambda x, owner: x, [], [], [], [], [])
    assert [field.shape for field in est] == [(0,)] * 3


def _random_owner(rng):
    """(a, b, singular_left, singular_right, points) of one seeded owner:
    improper, short, just over or under 100 in b/a, many decades wide, or
    now and then a >= b or a b/a past the float range; its points inside,
    outside, on and repeated on the ends."""
    a = float(rng.choice([0.0, -0.0, rng.uniform(-2.0, 2.0),
                          10.0 ** rng.uniform(-300.0, 2.0), -1.0, 0.37]))
    kind = rng.choice(6, p=[0.2, 0.2, 0.2, 0.34, 0.03, 0.03])
    if kind == 5:
        a, b = 10.0 ** float(rng.uniform(-320.0, -10.0)), 1e300
    elif kind == 4:
        b = a - float(rng.choice([0.0, 1.0]))
    elif kind == 0:
        b = math.inf
    elif kind == 1:
        b = a + float(rng.uniform(1e-9, 5.0))
    elif kind == 2 and a > 0.0:
        step = int(rng.integers(-3, 4))  # b/a at, just under or just over 100
        b = a * 100.0
        for _ in range(abs(step)):
            b = math.nextafter(b, math.copysign(math.inf, step))
    elif a > 0.0:
        b = a * 10.0 ** float(rng.choice([rng.uniform(2.0, 300.0), 3.0, 8.0]))
    else:
        b = a + 10.0 ** float(rng.uniform(-3.0, 3.0))
    finite = b if math.isfinite(b) else a + 3.0
    choices = [a, b, finite, a - 1.0, finite + 1.0, 0.0, -0.0, 1e300,
               0.5 * (a + finite), a + 1e-3 * (finite - a), math.nan]
    points = [choices[i] for i in rng.integers(len(choices),
                                               size=rng.integers(6))]
    points += [float(rng.uniform(*sorted((a, finite))))
               for _ in range(rng.integers(3))]
    if rng.integers(2):
        points.append(points[0] if points else a)
    if points and rng.integers(2):
        points = np.array(points)
    return a, b, bool(rng.integers(2)), bool(rng.integers(2)), points


def _seed_outcome(mesh, *batch):
    """mesh's (lefts, rights, owner) as raw bytes, or its error."""
    try:
        return tuple(np.asarray(x).tobytes() for x in mesh(*batch))
    except (ValueError, ParameterDomainError) as err:
        return type(err), str(err)


def test_seed_mesh_matches_per_owner_edges():
    # the array seed mesh of every owner at once, its points NaN-padded
    # into one array, against the per-owner set and sort of the ragged
    # lists, bit for bit (a -0.0 edge included), or the same error, over
    # 2,800 batches of 1-6 owners
    rng = np.random.default_rng(2024)
    outcomes = collections.Counter()
    for _ in range(2800):
        a, b, left, right, points = zip(*(
            _random_owner(rng) for _ in range(rng.integers(1, 7))))
        expect = _seed_outcome(seed_mesh_per_owner, a, b, left, right, points)
        # as integrate_batch runs it
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            got = _seed_outcome(_seed_mesh, np.array(a), np.array(b), left,
                                right, _padded(points))
        assert got == expect
        outcomes[expect[0] if isinstance(expect[0], type) else "mesh"] += 1
    assert outcomes["mesh"] >= 2000
    assert min(outcomes[ValueError], outcomes[ParameterDomainError]) >= 50


@st.composite
def _ragged_owner(draw):
    """(a, b, singular_left, singular_right, points) of one owner, proper
    or improper, wide or a >= b, with a ragged list of points: NaN, -0.0,
    repeats, and points inside, on or outside the ends."""
    a = draw(st.sampled_from([0.0, -0.0, -1.0, 0.37, 1e-3])
             | st.floats(-2.0, 2.0))
    b = draw(st.sampled_from([math.inf, a, 1e4 * a + 1.0])
             | st.floats(1e-9, 1e3).map(lambda w: a + w))
    finite = b if math.isfinite(b) else a + 3.0
    point = (st.sampled_from([a, b, finite, a - 1.0, finite + 1.0, 0.0,
                              -0.0, math.nan, 0.5 * (a + finite)])
             | st.floats(*sorted((a, finite))))
    points = draw(st.lists(point, max_size=5))
    if points and draw(st.booleans()):
        points.append(points[0])
    return a, b, draw(st.booleans()), draw(st.booleans()), points


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(batch=st.lists(_ragged_owner(), min_size=1, max_size=5))
def test_padded_points_match_ragged_lists(batch):
    # any ragged batch, NaN-padded into one (n, m) array, seeds the mesh of
    # its per-owner lists bit for bit, or fails with the same error; a
    # points array whose first axis is not n is a ValueError
    a, b, left, right, points = zip(*batch)
    expect = _seed_outcome(seed_mesh_per_owner, a, b, left, right, points)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        got = _seed_outcome(_seed_mesh, np.array(a), np.array(b), left,
                            right, _padded(points))
    assert got == expect
    padded = _padded(points)
    for wrong in (padded[1:], np.vstack([padded, padded[:1]]), padded.T):
        if wrong.shape[:1] != (len(batch),):
            with pytest.raises(ValueError, match=r"^points must have "):
                integrate_batch(lambda x, owner: x, a, b, left, right, wrong)


@pytest.mark.parametrize("count", [1, 5])
@pytest.mark.parametrize("side", ["singular_left", "singular_right"])
def test_flags_of_another_length_than_the_owners_are_rejected(side, count):
    # flags are one per owner: one flag for three owners would grade owner 0
    # alone, and five would index past the owners; both name the shape
    with pytest.raises(ValueError, match=rf"^{side} must have 3 entries, "
                       rf"got \({count},\)$"):
        integrate_batch(lambda x, owner: x, [0.0] * 3, [1.0] * 3,
                        **{side: [True] * count})


@pytest.mark.parametrize("wrong_first", [True, False])
def test_batch_raises_the_first_bad_owners_bound_error(wrong_first):
    # a >= b is a ValueError, a b/a past the float range a
    # ParameterDomainError; the batch raises that of the lowest-numbered
    # bad owner, the one a loop over the owners in order raises
    wrong, wide = (2.0, 1.0), (1e-300, 1e300)
    bounds = [(0.0, 1.0), wrong, (1.0, math.inf), wide]
    if not wrong_first:
        bounds[1], bounds[3] = wide, wrong
    a, b = zip(*bounds)
    flags, points = [False] * 4, [[]] * 4
    expect = _seed_outcome(seed_mesh_per_owner, a, b, flags, flags, points)
    assert expect[0] is (ValueError if wrong_first else ParameterDomainError)
    with pytest.raises(expect[0]) as err:
        integrate_batch(lambda x, owner: x, a, b, flags, flags, points)
    assert str(err.value) == expect[1]


def _kernel_work(monkeypatch, run):
    """(rule calls, interval rows, integrand calls) of the GK15 rule over
    run(): a rule call is one kernel request to evaluate intervals, however
    the rule chunks them into integrand calls."""
    import hardylab.quadrature as quadrature

    inner, work, depth = quadrature._gk15, [0, 0, 0], [0]

    def counting(f, lefts, *args):
        if depth[0]:
            return inner(f, lefts, *args)
        work[0] += 1
        work[1] += lefts.size

        def g(x, owner):
            work[2] += 1
            return f(x, owner)

        depth[0] += 1
        try:
            return inner(g, lefts, *args)
        finally:
            depth[0] -= 1

    with monkeypatch.context() as patch:
        patch.setattr(quadrature, "_gk15", counting)
        run()
    return tuple(work)


def test_kernel_work_is_pinned(monkeypatch, tmp_path):
    # a faster kernel must not do less refinement: the rule calls, interval
    # rows and integrand calls of four README-sized runs
    from hardylab.cli import run
    from hardylab.functional import random_profile_slacks
    from hardylab.scenarios import DEFAULT_SEED, scenario_catalog

    def cli(*args):
        return lambda: run([*args, "--out", str(tmp_path / "out")])

    gaussian_b = scenario_catalog("gaussian_b", Q=5.0, p=2.0, theta=1.0,
                                  alpha=2.0, beta=2.0)
    runs = {
        "bessel": cli("bessel", "--scenario", "power", "--Q", "5", "--p", "2",
                      "--theta", "1", "--r0", "1", "--r1", "10"),
        "eig": cli("eig", "--Q", "5", "--p", "3", "--theta", "1", "--a", "1",
                   "--b", "2", "--which", "2", "--eigenfunction-out",
                   str(tmp_path / "phi2.csv")),
        "slacks": lambda: random_profile_slacks(gaussian_b, 40, DEFAULT_SEED),
        "sweep": cli("sharpness", "--scenario", "power", "--Q", "5", "--p",
                     "2", "--theta", "1", "--eps-grid", "1e-2,1e-3,1e-4"),
    }
    work = {name: _kernel_work(monkeypatch, thunk)
            for name, thunk in runs.items()}
    assert work == {"bessel": (1, 128, 1), "eig": (13, 3362, 22),
                    "slacks": (8, 1890, 13), "sweep": (3, 178, 3)}
