import math

import numpy as np
import pytest

from hardylab.functional import reduce_radial_functional
from hardylab.profiles import Profile
from hardylab.scenarios import (CheckFailure, ParameterDomainError,
                                closed_form_maximizer, scenario_catalog)
from hardylab.sharpness import (BRIDGE_MAX_SLOPE, SweepRow,
                                improved_weight_check, plateau_cutoff,
                                psi_cutoff, psiR_deficit,
                                strip_cutoff, sweep_quotient)

from oracles import decades_gauss, psi_energy


def test_cutoff_spec_validation():
    # each builder rejects an argument outside its own range, NaN included
    for build, bad in ((plateau_cutoff, 0.6), (plateau_cutoff, math.nan),
                       (psi_cutoff, 0.9), (psi_cutoff, math.nan),
                       (strip_cutoff, 0.25), (strip_cutoff, 0.0)):
        with pytest.raises(ParameterDomainError):
            build(bad)


def test_plateau_cutoff_values():
    g = plateau_cutoff(0.1)
    vals = g.value(np.array([0.05, 0.3, 20.0]))
    assert vals.tolist() == [0.0, 1.0, 0.0]
    assert g.support == (0.1, 10.0)
    # derivative bounds |g'| <= c/eps on the rising bridge (width eps) and
    # 2 c eps on the falling one (width 1/(2 eps)), c the quintic slope bound
    r = np.linspace(0.1, 0.2, 2000)
    assert np.max(np.abs(g.derivative(r))) <= BRIDGE_MAX_SLOPE / 0.1 + 1e-9
    r2 = np.linspace(5.0, 10.0, 2000)
    assert np.max(np.abs(g.derivative(r2))) <= \
        2.0 * BRIDGE_MAX_SLOPE * 0.1 + 1e-9


def test_plateau_identity():
    # int over the plateau of r^-1 equals -ln(4 eps^2) exactly
    eps = 0.05
    g = plateau_cutoff(eps)
    val = decades_gauss(lambda r: g.value(r) ** 2 / r, 2 * eps, 0.5 / eps)
    assert val == pytest.approx(-math.log(4 * eps ** 2), rel=1e-12)
    assert -math.log(4 * eps ** 2) == pytest.approx(math.log(100.0), rel=1e-15)


def test_bridge_integrals_bounded_in_eps():
    # the three reduced integrals stay within O(1) of the plateau law
    for eps in (1e-2, 1e-3, 1e-4):
        g = plateau_cutoff(eps)
        lead = decades_gauss(lambda r: g.value(r) ** 2 / r, eps, 1.0 / eps,
                             per_decade=16)
        assert abs(lead - (-math.log(4 * eps ** 2))) < 1.0
        mixed = decades_gauss(lambda r: np.abs(g.value(r)) * np.abs(g.derivative(r)),
                              eps, 1.0 / eps, per_decade=16)
        assert mixed < 4.0
        energy = decades_gauss(lambda r: r * g.derivative(r) ** 2, eps,
                               1.0 / eps, per_decade=16)
        assert abs(energy - 30.0 / 7.0) < 1e-6   # both bridges give 15/7


def _log_composed_cutoff(eps: float, R: float) -> Profile:
    """g_eps(ln(R/r)) built directly in r, independent of the sweep's
    substitution L = ln(R/r)."""
    g = plateau_cutoff(eps)

    def value(r):
        return g.value(np.log(R / np.asarray(r, dtype=float)))

    def derivative(r):
        r = np.asarray(r, dtype=float)
        return -g.derivative(np.log(R / r)) / r

    return Profile(value, derivative, (R * math.exp(-1.0 / eps), R * math.exp(-eps)),
                   knots=tuple(sorted(R * math.exp(-k) for k in g.knots)))


@pytest.mark.parametrize("p, theta, R", [(2.0, 0.0, 1.0), (3.0, 0.5, 2.0)])
def test_log_sweep_matches_composed_cutoff_in_r(p, theta, R):
    # the sweep runs log scenarios through the equivalent power pair in
    # L = ln(R/r); the oracle truncates the log maximizer in r itself
    sc = scenario_catalog("log_radial", p=p, theta=theta, R=R)
    for eps in (0.05, 0.02):
        row = sweep_quotient(sc, [eps])[0]
        u = closed_form_maximizer(sc) * _log_composed_cutoff(eps, R)
        oracle = reduce_radial_functional(sc, u, tol=1e-12).quotient
        assert row.quotient == pytest.approx(oracle, rel=1e-10)


def test_psi_energy_closed_form():
    assert psi_energy(psi_cutoff(math.e ** 2)) == pytest.approx(1.0, abs=1e-12)
    for R in (10.0, 100.0, 1000.0):
        assert psi_energy(psi_cutoff(R)) == pytest.approx(2.0 / math.log(R),
                                                          abs=1e-12)


def test_psi_cross_term_vanishes():
    psi = psi_cutoff(50.0)
    val = decades_gauss(lambda r: psi.value(r) * psi.derivative(r),
                        50.0 ** -2, 50.0 ** 2, per_decade=16)
    assert abs(val) <= 1e-12


def test_sweep_rows_and_stability():
    sc = scenario_catalog("power", Q=5.0, p=2.0, theta=1.0)
    rows = sweep_quotient(sc, [1e-2, 1e-3, 1e-4])
    assert [r.epsilon for r in rows] == [1e-2, 1e-3, 1e-4]
    deficits = [r.deficit for r in rows]
    assert all(d > 0 for d in deficits)
    assert deficits[0] > deficits[1] > deficits[2]
    scaled = [r.scaled_deficit for r in rows]
    assert max(scaled) <= 2.0 * min(scaled)


def test_sweep_frozen_value_power():
    # quotient 2.25 + (30/7)/I1 with I1 the plateau mass; frozen via the
    # decades_gauss oracle at eps = 1e-3
    sc = scenario_catalog("power", Q=5.0, p=2.0, theta=1.0)
    row = sweep_quotient(sc, [1e-3])[0]
    assert row.quotient == pytest.approx(2.5802706700771845, rel=1e-8)


def test_sweep_grid_validation():
    sc = scenario_catalog("power", Q=5.0, p=2.0, theta=1.0)
    with pytest.raises(ParameterDomainError):
        sweep_quotient(sc, [1e-3, 1e-2])
    with pytest.raises(ParameterDomainError):
        sweep_quotient(sc, [0.3])


def test_sweep_row_invariant():
    with pytest.raises(CheckFailure):
        SweepRow(1e-2, 1.0, -1e-3, -1.0)


def test_gaussian_a_sweep_converges():
    sc = scenario_catalog("gaussian_a", p=2.0, alpha=2.0, beta=2.0, Q=3.0)
    rows = sweep_quotient(sc, [5e-2, 2e-2, 1e-2])
    assert all(r.deficit > 0 for r in rows)
    assert rows[-1].deficit < 1e-5


def test_psiR_deficit_p2_equals_energy():
    rows = psiR_deficit(5.0, 2.0, [10.0, 100.0, 1000.0])
    for row in rows:
        assert row["deficit_times_lnR"] == pytest.approx(2.0, rel=1e-9)
    assert rows[0]["deficit"] > rows[1]["deficit"] > rows[2]["deficit"]


def test_psiR_deficit_general_p_bounded():
    rows = psiR_deficit(5.0, 3.0, [10.0, 100.0, 1000.0])
    scaled = [r["deficit_times_lnR"] for r in rows]
    assert all(s > 0 for s in scaled)
    assert max(scaled) <= 2.0 * min(scaled)


def test_sweep_covers_every_closed_form_scenario():
    # single-eps smoke across the catalog: the truncated maximizer never
    # undercuts the sharp constant, whatever the scenario family
    from hardylab.scenarios import default_catalog

    for sc in default_catalog():
        if sc.name == "improved_weight":
            continue
        row = sweep_quotient(sc, [2e-2])[0]
        assert row.deficit >= -1e-9, sc.name


def test_log_cylindrical_sweep_matches_log_radial():
    radial = scenario_catalog("log_radial", p=2.0, theta=0.0, R=1.0)
    cyl = scenario_catalog("log_cylindrical", p=2.0, theta=0.0, R=1.0, m=3)
    rows_r = sweep_quotient(radial, [1e-2, 1e-3])
    rows_c = sweep_quotient(cyl, [1e-2, 1e-3])
    for a, b in zip(rows_r, rows_c):
        assert a.quotient == pytest.approx(b.quotient, rel=1e-12)
    assert rows_c[1].deficit < rows_c[0].deficit


def test_improved_weight_slack_nonnegative():
    out = improved_weight_check(5.0, 2.0, 100, seed=7)
    assert out["min_slack"] >= -1e-9
    # boundary case Q = p: the pure improvement term alone stays nonnegative
    out2 = improved_weight_check(2.0, 2.0, 30, seed=3)
    assert out2["min_slack"] >= -1e-9
