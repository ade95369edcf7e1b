import json
import math

import numpy as np
import pytest

from hardylab.scenarios import (Exponents, ParameterDomainError, Scenario,
                                default_catalog, scenario_catalog,
                                scenario_from_json, scenario_to_json)


def test_power_constants():
    sc = scenario_catalog("power", Q=5.0, p=2.0, theta=1.0)
    assert sc.sharp_constant == pytest.approx(2.25, abs=0)
    sc2 = scenario_catalog("power", Q=4.0, p=3.0, theta=1.0)
    assert sc2.sharp_constant == pytest.approx(1.0 / 27.0, rel=1e-15)


def test_power_two_closed_forms_agree():
    # |(beta(p-1)+p(theta-1))/p|^p == |(Q-p theta)/p|^p for the
    # fundamental-solution homogeneity, over random parameters
    rng = np.random.default_rng(42)
    for _ in range(100):
        p = rng.uniform(2.0, 5.0)
        Q = rng.uniform(1.0, 9.0)
        theta = rng.uniform(-2.0, 3.0)
        beta = Exponents(p, theta, Q).beta
        lhs = abs((beta * (p - 1.0) + p * (theta - 1.0)) / p) ** p
        rhs = abs((Q - p * theta) / p) ** p
        assert lhs == pytest.approx(rhs, rel=1e-13)
        if rhs > 0:
            sc = scenario_catalog("power", Q=Q, p=p, theta=theta)
            assert sc.sharp_constant == pytest.approx(rhs, rel=1e-13)


def test_power_custom_beta():
    sc = scenario_catalog("power", p=2.0, theta=1.0, beta=1.0)  # harmonic gauge
    assert sc.exponents.Q == pytest.approx(1.0)
    assert sc.sharp_constant == pytest.approx(0.25)
    with pytest.raises(ParameterDomainError):
        scenario_catalog("power", Q=5.0, p=2.0, theta=1.0, beta=1.0)


def test_log_constant():
    sc = scenario_catalog("log_radial", p=2.0, theta=0.0)
    assert sc.sharp_constant == pytest.approx(0.25)
    assert sc.pair.interval == (0.0, 1.0)


def test_gaussian_a_standard_measure_specialization():
    sc = scenario_catalog("gaussian_a", p=2.0, alpha=2.0, beta=2.0, Q=7.0)
    assert sc.sharp_constant == pytest.approx(0.25)
    # correction coefficient (alpha/(p beta))^(p-1) (alpha(p-1)+Q-p) = Q/2
    assert sc.extra["correction_coefficient"] == pytest.approx(7.0 / 2.0)


def test_gaussian_hypothesis_validation():
    with pytest.raises(ParameterDomainError, match="alpha"):
        scenario_catalog("gaussian_a", p=2.0, alpha=1.5, beta=2.0, Q=3.0)
    with pytest.raises(ParameterDomainError, match="beta"):
        scenario_catalog("gaussian_b", p=2.0, theta=1.0, alpha=2.0, beta=-1.0,
                         Q=5.0)
    with pytest.raises(ParameterDomainError, match="Q != p"):
        scenario_catalog("gaussian_b", p=2.0, theta=1.0, alpha=2.0, beta=2.0,
                         Q=2.0)


def test_annulus_requires_lambda1_for_p_not_2():
    # no closed form for p != 2: the builder computes lam_1 (spectral), and
    # a claimed value is no longer accepted
    sc = scenario_catalog("annulus", Q=5.0, p=3.0, theta=1.0, a=1.0, b=2.0)
    assert sc.sharp_constant == 87.84714424979337
    # the Riccati period integral at 30 digits (tests/oracles.py)
    assert sc.sharp_constant == pytest.approx(87.8471442497941, rel=1e-10)
    assert sc.pair.lam == sc.sharp_constant
    assert sc.maximizer == "eigenfunction"
    with pytest.raises(TypeError, match="lambda1"):
        scenario_catalog("annulus", Q=5.0, p=3.0, theta=1.0, a=1.0, b=2.0,
                         lambda1=0.5)


def test_annulus_p2_closed_form():
    sc = scenario_catalog("annulus", Q=3.0, p=2.0, theta=1.0, a=1.0, b=math.e)
    assert sc.sharp_constant == pytest.approx(0.25 + math.pi ** 2, rel=1e-15)


def test_antisymmetric_constants():
    sc = scenario_catalog("antisymmetric", N=3, theta=1.0)
    assert sc.sharp_constant == pytest.approx(12.25)
    assert sc.extra["sphere_eigenvalue"] == pytest.approx(12.0)
    sc2 = scenario_catalog("antisymmetric", N=2, theta=1.0)
    assert sc2.sharp_constant == pytest.approx(1.0)
    with pytest.raises(ParameterDomainError, match="N\\^2 > 2"):
        scenario_catalog("antisymmetric", N=2, theta=2.5)


def test_strip_constant():
    sc = scenario_catalog("strip", theta=1.0)
    assert sc.sharp_constant == pytest.approx(0.25)
    assert scenario_catalog("strip", theta=1.5).sharp_constant == pytest.approx(1.0)


def test_improved_weight_pointwise_exceeds_hardy():
    sc = scenario_catalog("improved_weight", Q=5.0, p=2.0)
    r = np.linspace(0.05, 0.95, 50)
    hardy_part = sc.extra["hardy_constant"] * r ** (-2.0)
    assert np.all(sc.pair.W(r) > hardy_part)


def test_exponents_invariants():
    with pytest.raises(ParameterDomainError):
        Exponents(p=1.5, theta=0.0, Q=2.0)
    with pytest.raises(ParameterDomainError):
        Exponents(p=2.0, theta=0.0, Q=0.5)
    good = dict(p=2.0, theta=1.0, Q=5.0)
    for bad in (dict(Q=math.nan), dict(Q=math.inf), dict(theta=math.nan),
                dict(theta=-math.inf), dict(p=math.inf)):
        with pytest.raises(ParameterDomainError):
            Exponents(**{**good, **bad})
    e = Exponents(**good)
    assert e.measure_exponent == pytest.approx(4.0)
    # beta is derived, so the homogeneity Q - 1 = -(beta-1)(p-1) holds
    assert e.beta == -3.0
    e3 = Exponents(p=3.0, theta=0.5, Q=4.0)
    assert e3.Q - 1.0 == pytest.approx(-(e3.beta - 1.0) * (e3.p - 1.0),
                                       rel=1e-15)


def test_unknown_scenario_rejected():
    with pytest.raises(ParameterDomainError, match="unknown scenario"):
        scenario_catalog("sobolev")


def test_weight_pair_sign_validation():
    from hardylab.scenarios import RadialWeightPair

    def neg(r):
        return -np.ones_like(np.asarray(r, dtype=float))

    def one(r):
        return np.ones_like(np.asarray(r, dtype=float))

    with pytest.raises(ParameterDomainError, match="V must be nonnegative"):
        RadialWeightPair(neg, one, 1.0, (0.0, math.inf))
    with pytest.raises(ParameterDomainError, match="W flagged nonnegative"):
        RadialWeightPair(one, neg, 1.0, (0.0, math.inf))
    RadialWeightPair(one, neg, 1.0, (0.0, math.inf), W_nonnegative=False)


def test_weight_probe_reads_an_overflow_as_nonnegative():
    # W = r^-60 overflows at the probe's r = 1e-6: inf >= 0 passes without a
    # RuntimeWarning, while a NaN still fails the sign check
    from hardylab.scenarios import RadialWeightPair

    sc = scenario_catalog("power", Q=5.0, p=60.0, theta=1.0)
    with np.errstate(over="ignore"):
        assert np.isinf(sc.pair.W(np.array([1e-6]))).all()

    def nan_at_zero(r):
        r = np.asarray(r, dtype=float)
        return np.where(r < 1e-3, np.nan, r ** -400.0)

    with pytest.raises(ParameterDomainError, match="V must be nonnegative"):
        RadialWeightPair(nan_at_zero, sc.pair.W, 1.0, (0.0, math.inf))


def test_nonfinite_knobs_rejected():
    from hardylab.scenarios import RadialWeightPair

    for name, bad in (("log_radial", dict(R=math.inf)),
                      ("gaussian_a", dict(alpha=math.inf)),
                      ("gaussian_a", dict(beta=math.nan)),
                      ("gaussian_b", dict(alpha=math.nan)),
                      ("gaussian_b", dict(beta=math.inf))):
        knob = next(iter(bad))
        with pytest.raises(ParameterDomainError, match=f"^{knob} must be"):
            scenario_catalog(name, **bad)

    def one(r):
        return np.ones_like(np.asarray(r, dtype=float))

    for lam in (math.inf, math.nan):
        with pytest.raises(ParameterDomainError, match="^lambda must be"):
            RadialWeightPair(one, one, lam, (0.0, math.inf))


def test_json_round_trip():
    extra = [scenario_catalog("annulus", Q=5.0, p=3.0, theta=1.0, a=1.0,
                              b=2.0),
             scenario_catalog("log_cylindrical", p=2.0, theta=0.0, R=1.0, m=3,
                              N=7)]
    for sc in default_catalog() + extra:
        text = scenario_to_json(sc)
        doc = json.loads(text)
        assert doc["name"] == sc.name
        assert isinstance(doc["pair"]["lambda"], float)
        back = scenario_from_json(text)
        assert isinstance(back, Scenario)
        assert back.params == sc.params
        assert back.sharp_constant == pytest.approx(sc.sharp_constant, rel=1e-14)
        assert back.exponents == sc.exponents
        assert back.extra == sc.extra
        r = np.linspace(*_probe_window(sc), 17)
        assert np.allclose(back.pair.W(r), sc.pair.W(r), rtol=1e-14)


def _probe_window(sc):
    lo, hi = sc.pair.interval
    lo = max(lo, 1e-2)
    hi = min(hi, 3.0) if math.isfinite(hi) else 3.0
    return lo + 1e-3, hi - 1e-3


def test_json_rejects_tampered_constant():
    doc = json.loads(scenario_to_json(scenario_catalog("power", Q=5.0, p=2.0,
                                                       theta=1.0)))
    doc["sharp_constant"] = 2.0
    with pytest.raises(ParameterDomainError, match="sharp_constant"):
        scenario_from_json(json.dumps(doc))
    # malformed documents: a missing key, an argument the builder lacks
    missing = dict(doc)
    del missing["params"]
    unknown = dict(doc, params={**doc["params"], "alpha": 2.0})
    for bad in (missing, unknown):
        with pytest.raises(ParameterDomainError, match="malformed"):
            scenario_from_json(json.dumps(bad))
