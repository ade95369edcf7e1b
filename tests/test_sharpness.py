import math
import subprocess
import sys

import numpy as np
import pytest

from hardylab.scenarios import (CheckFailure, ParameterDomainError,
                                scenario_catalog)
from hardylab.sharpness import (BRIDGE_CONSTANTS, CutoffSpec, SweepRow,
                                improved_weight_check, make_cutoff, psi_energy,
                                psiR_deficit, sweep_quotient)

from oracles import decades_gauss


def test_cutoff_spec_validation():
    with pytest.raises(ParameterDomainError):
        CutoffSpec("plain_g_eps", 0.6)
    with pytest.raises(ParameterDomainError):
        CutoffSpec("psi_R", 0.9)
    with pytest.raises(ParameterDomainError):
        CutoffSpec("plain_g_eps", 0.1, smoothing="septic")
    with pytest.raises(ParameterDomainError):
        CutoffSpec("plateau", 0.1)


def test_plateau_cutoff_values():
    g = make_cutoff(CutoffSpec("plain_g_eps", 0.1))
    vals = g.value(np.array([0.05, 0.3, 20.0]))
    assert vals.tolist() == [0.0, 1.0, 0.0]
    assert g.support == (0.1, 10.0)
    # derivative bounds |g'| <= c/eps and c*eps with the quintic constant
    r = np.linspace(0.1, 0.2, 2000)
    cmax = BRIDGE_CONSTANTS["quintic"]["c_lower"]
    assert np.max(np.abs(g.derivative(r))) <= cmax / 0.1 + 1e-9
    r2 = np.linspace(5.0, 10.0, 2000)
    assert np.max(np.abs(g.derivative(r2))) <= \
        BRIDGE_CONSTANTS["quintic"]["c_upper"] * 0.1 + 1e-9


def test_plateau_identity():
    # int over the plateau of r^-1 equals -ln(4 eps^2) exactly
    eps = 0.05
    g = make_cutoff(CutoffSpec("plain_g_eps", eps))
    val = decades_gauss(lambda r: g.value(r) ** 2 / r, 2 * eps, 0.5 / eps)
    assert val == pytest.approx(-math.log(4 * eps ** 2), rel=1e-12)
    assert -math.log(4 * eps ** 2) == pytest.approx(math.log(100.0), rel=1e-15)


def test_bridge_integrals_bounded_in_eps():
    # the three reduced integrals stay within O(1) of the plateau law
    for eps in (1e-2, 1e-3, 1e-4):
        g = make_cutoff(CutoffSpec("plain_g_eps", eps))
        lead = decades_gauss(lambda r: g.value(r) ** 2 / r, eps, 1.0 / eps,
                             per_decade=16)
        assert abs(lead - (-math.log(4 * eps ** 2))) < 1.0
        mixed = decades_gauss(lambda r: np.abs(g.value(r)) * np.abs(g.derivative(r)),
                              eps, 1.0 / eps, per_decade=16)
        assert mixed < 4.0
        energy = decades_gauss(lambda r: r * g.derivative(r) ** 2, eps,
                               1.0 / eps, per_decade=16)
        assert abs(energy - 30.0 / 7.0) < 1e-6   # both bridges give 15/7


def test_log_cutoff_reduced_integrals_follow_plateau_law():
    # the three log-composed integrals (in r, against 1/r measure) match the
    # plateau law -ln(4 eps^2) + O(1) and the two bridge integrals stay O(1)
    R = 2.0
    for p in (2.0, 3.0):
        rows = []
        for eps in (0.05, 0.02):
            g = make_cutoff(CutoffSpec("log_g_eps", eps), R=R)
            lo, hi = g.support

            def L(r):
                return np.log(R / np.asarray(r, dtype=float))

            lead = decades_gauss(
                lambda r: np.abs(g.value(r)) ** p / (r * L(r)), lo, hi,
                per_decade=12)
            assert abs(lead - (-math.log(4 * eps ** 2))) < 1.0
            # the derivative in the log variable L is r*g'(r)
            mixed = decades_gauss(
                lambda r: np.abs(g.value(r)) ** (p - 1)
                * np.abs(r * g.derivative(r)) / r, lo, hi, per_decade=12)
            upper = decades_gauss(
                lambda r: L(r) ** (p - 1) * np.abs(r * g.derivative(r)) ** p / r,
                lo, hi, per_decade=12)
            rows.append((mixed, upper))
        # O(1) claims operationalized as factor-2 stability across eps
        for j in range(2):
            vals = [row[j] for row in rows]
            assert max(vals) <= 2.0 * min(vals)
            assert max(vals) < 30.0


def test_log_cutoff_support_and_chain_rule():
    g = make_cutoff(CutoffSpec("log_g_eps", 0.05), R=2.0)
    lo, hi = g.support
    assert lo == pytest.approx(2.0 * math.exp(-20.0))
    assert hi == pytest.approx(2.0 * math.exp(-0.05))
    # finite differences in u = ln r (the variable the bridges live in)
    u = np.linspace(math.log(lo) + 1e-3, math.log(hi) - 1e-3, 800)
    h = 1e-6
    fd_u = (g.value(np.exp(u + h)) - g.value(np.exp(u - h))) / (2 * h)
    analytic_u = g.derivative(np.exp(u)) * np.exp(u)    # dg/du = r g'(r)
    assert np.max(np.abs(fd_u - analytic_u)) < 1e-5 * (1 + np.max(np.abs(fd_u)))


def test_psi_energy_closed_form():
    assert psi_energy(math.e ** 2) == pytest.approx(1.0, abs=1e-12)
    for R in (10.0, 100.0, 1000.0):
        assert psi_energy(R) == pytest.approx(2.0 / math.log(R), abs=1e-12)


def test_psi_cross_term_vanishes():
    psi = make_cutoff(CutoffSpec("psi_R", 50.0))
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


def test_sharpness_and_geometry_do_not_load_the_ode_layer():
    code = ("import sys, hardylab.sharpness, hardylab.geometry; "
            "print('scipy.integrate' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
