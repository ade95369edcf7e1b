import hashlib
import json
import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from hardylab.cli import run
from hardylab.functional import reduce_radial_functional
from hardylab.profiles import Profile
from hardylab.quadrature import QuadratureError
from hardylab.scenarios import (CheckFailure, ParameterDomainError,
                                UnsupportedScenarioError,
                                closed_form_maximizer, scenario_catalog)
from hardylab.sharpness import (BRIDGE_MAX_SLOPE, SweepRow,
                                _log_equivalent_scenario, _picone_integrals,
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


# the power family, with p = 2, 2.5 and 3 for power
POWER_FAMILY = [
    ("power", dict(Q=5.0, p=2.0, theta=1.0)),
    ("power", dict(Q=5.0, p=2.5, theta=1.0)),
    ("power", dict(Q=5.0, p=3.0, theta=1.0)),
    ("cylindrical", dict(m=3, p=2.0, theta=1.0, N=5)),
    ("strip", dict(theta=1.0)),
    ("antisymmetric", dict(N=3, theta=1.0)),
    ("log_radial", dict(p=2.0, theta=0.0, R=1.0)),
    ("log_radial", dict(p=3.0, theta=0.5, R=2.0)),
    ("log_cylindrical", dict(p=2.0, theta=0.0, R=1.0, m=3)),
]
GAUSSIAN_B = ("gaussian_b", dict(p=2.0, theta=1.0, alpha=2.0, beta=2.0, Q=5.0))
ANNULUS = ("annulus", dict(Q=3.0, p=2.0, theta=1.0, a=1.0, b=math.e))
# every other catalog scenario with a closed-form maximizer
OTHER_CLOSED_FORMS = [
    ("gaussian_a", dict(p=2.0, alpha=2.0, beta=2.0, Q=3.0)),
    ("gaussian_a", dict(p=3.0, alpha=2.0, beta=2.0, Q=3.0)),
    GAUSSIAN_B,
    ("gaussian_b", dict(p=3.0, theta=1.0, alpha=2.0, beta=2.0, Q=5.0)),
    ANNULUS,
]


def _with_constant(sc, c):
    return replace(sc, pair=replace(sc.pair, lam=c))


@pytest.mark.parametrize("name, kw", POWER_FAMILY + [GAUSSIAN_B, ANNULUS])
def test_t_form_sweep_matches_r_form(name, kw):
    # the Picone integrals in t against the truncated maximizer reduced in r
    # (log scenarios through their power pair in L = ln(R/r)); the annulus
    # at eps = 0.24, where the falling bridge reaches into [1, e] and q - c
    # in r is not yet at its rounding floor
    sc = scenario_catalog(name, **kw)
    work = _log_equivalent_scenario(sc) if name.startswith("log") else sc
    c = sc.sharp_constant
    grid = [0.24] if name == "annulus" else [1e-2, 1e-3, 1e-4]
    for row in sweep_quotient(sc, grid):
        u = closed_form_maximizer(work) * plateau_cutoff(row.epsilon)
        q = reduce_radial_functional(work, u, tol=1e-12).quotient
        assert row.quotient == pytest.approx(q, rel=1e-12, abs=0.0)
        assert row.deficit == pytest.approx(q - c, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("name, kw", [
    ("power", dict(Q=5.0, p=2.0, theta=1.0)),    # gamma = -3/2
    ("power", dict(Q=3.0, p=2.0, theta=0.3)),    # gamma = -6/5
    ("power", dict(Q=1.0, p=2.0, theta=3.0)),    # gamma = 5/2
    ("strip", dict(theta=1.0)),                  # gamma = 1/2
])
def test_bridge_remainder_p2_is_30_over_7(name, kw):
    # P = int G_t^2 dt = 3 int_0^1 s'^2 = 30/7 over the two bridges, for
    # every gamma and eps; the deficit tends to it times 1/L
    sc = scenario_catalog(name, **kw)
    for _, P in _picone_integrals(sc, sc.sharp_constant, [1e-2, 1e-300]):
        assert P == pytest.approx(30.0 / 7.0, rel=1e-13)


@pytest.mark.parametrize("name, kw", POWER_FAMILY + OTHER_CLOSED_FORMS)
def test_sweep_rejects_a_constant_off_by_1e_6(name, kw):
    sc = scenario_catalog(name, **kw)
    for factor in (1.0 + 1e-6, 1.0 - 1e-6):
        with pytest.raises(CheckFailure):
            sweep_quotient(_with_constant(sc, sc.sharp_constant * factor),
                           [1e-2])


@pytest.mark.parametrize("name, kw", POWER_FAMILY + OTHER_CLOSED_FORMS)
def test_sweep_batch_equals_eps_by_eps(name, kw):
    # every eps's integrals are owners of one kernel call, each with its own
    # refinement, so a grid's rows are its one-eps sweeps, bitwise
    sc = scenario_catalog(name, **kw)
    grid = [5e-2, 1e-2, 1e-3, 1e-4]
    assert sweep_quotient(sc, grid) == \
        [sweep_quotient(sc, [eps])[0] for eps in grid]


def _with_chi_scaled(sc, factor):
    row = sc.maximizer_in_t

    def scaled(t):
        psi, chi, rho, z = row(t)
        return psi, chi * factor, rho, z

    return replace(sc, maximizer_in_t=scaled)


@pytest.mark.parametrize("name, kw", [
    *(case for case in POWER_FAMILY if not case[0].startswith("log")),
    *OTHER_CLOSED_FORMS])
def test_sweep_rejects_a_maximizer_off_by_1e_6(name, kw):
    # a maximizer row whose chi = psi r phi'/phi is off by a relative 1e-6
    # no longer cancels the weights: N - c D and the Picone integral part
    sc = scenario_catalog(name, **kw)
    grid = [0.24] if name == "annulus" else [1e-2]
    for factor in (1.0 + 1e-6, 1.0 - 1e-6):
        with pytest.raises(CheckFailure, match="Picone"):
            sweep_quotient(_with_chi_scaled(sc, factor), grid)


@pytest.mark.parametrize("name, kw", POWER_FAMILY + OTHER_CLOSED_FORMS)
def test_maximizer_in_t_is_the_r_form(name, kw):
    # each builder's row against its maximizer phi and weights in r, at
    # t = ln r: psi = (V r^(Q-p))^(1/p) phi, chi = psi r phi'/phi,
    # rho = W r^Q phi^p and z = (zero-order weight) r^Q phi^p; the log
    # scenarios carry no row, since they sweep as power pairs in ln(R/r)
    sc = scenario_catalog(name, **kw)
    if name.startswith("log"):
        assert sc.maximizer_in_t is None
        return
    p, Q = sc.exponents.p, sc.exponents.Q
    a, b = sc.pair.interval
    r = (np.linspace(a, b, 11)[1:-1] if name == "annulus"
         else np.geomspace(0.2, 5.0, 9))
    phi = closed_form_maximizer(sc)
    value, slope = phi.value(r), phi.derivative(r)
    zero_order = sc.numerator_zero_order
    psi = (sc.pair.V(r) * r ** (Q - p)) ** (1.0 / p) * value
    expected = [psi, psi * r * slope / value,
                sc.pair.W(r) * r ** Q * value ** p,
                0.0 * r if zero_order is None else
                zero_order(r) * r ** Q * value ** p]
    row = sc.maximizer_in_t(np.log(r))
    assert len(row) == 4
    for got, want in zip(row, expected):
        got = np.broadcast_to(got, r.shape)
        assert np.all(np.abs(got - want)
                      <= 1e-14 * max(np.max(np.abs(want)), 1e-300)), name


@pytest.mark.parametrize("name, kw", [
    ("improved_weight", dict(Q=5.0, p=2.0)),
    ("annulus", dict(Q=5.0, p=3.0, theta=1.0, a=1.0, b=2.0)),
])
def test_sweep_without_a_maximizer_names_its_tag(name, kw):
    sc = scenario_catalog(name, **kw)
    assert sc.maximizer_in_t is None
    with pytest.raises(UnsupportedScenarioError) as ref:
        closed_form_maximizer(sc)
    with pytest.raises(UnsupportedScenarioError) as err:
        sweep_quotient(sc, [1e-2])
    assert str(err.value) == str(ref.value)
    assert f"(tag: {sc.maximizer})" in str(err.value)


def _pin_grid(name):
    # gaussian_a's integrands overflow in t below eps ~ 1e-50 at p = 3
    if name == "gaussian_a":
        return [1e-2, 1e-3, 1e-4, 1e-10, 1e-30, 1e-40]
    grid = [1e-2, 1e-3, 1e-4, 1e-10, 1e-30, 1e-100, 1e-300]
    return grid + [5e-324] if name == "gaussian_b" else grid


def test_sweep_rows_are_pinned():
    # every closed-form sweep, bit for bit: the rows of each case, repr'd
    # and hashed in order, at eps down to 1e-300 (gaussian_b to 5e-324)
    digest = hashlib.sha256()
    for name, kw in POWER_FAMILY + OTHER_CLOSED_FORMS:
        rows = sweep_quotient(scenario_catalog(name, **kw), _pin_grid(name))
        digest.update(repr(rows).encode())
    assert digest.hexdigest() == \
        "c6478c040f0f5eecc10f5d8bda34d3502028a7387a9cf53c92818683e0c2fe1b"


def test_power_sweep_below_the_float_span(tmp_path):
    # eps to 1/eps spans more than a float ratio below eps ~ 1e-154, and
    # phi'^2 overflows at r = 1e-70; in t neither exists
    out = tmp_path / "s.json"
    assert run(["sharpness", "--scenario", "power", "--Q", "5", "--p", "2",
                "--theta", "1", "--eps-grid", "1e-70,1e-150,1e-300",
                "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["stable"] is True
    last = doc["rows"][-1]
    assert 0.0 < last["deficit"] < 4e-3
    assert last["scaled_deficit"] == pytest.approx(30.0 / 7.0, rel=1e-3)


def test_gaussian_b_sweep_down_to_the_smallest_float(tmp_path):
    # r^alpha overflows from eps ~ 1e-154 on, and eps = 5e-324 is the
    # smallest subnormal; the weights in t take exp(alpha t - r^alpha/beta)
    out = tmp_path / "s.json"
    assert run(["sharpness", "--scenario", "gaussian_b", "--eps-grid",
                "1e-80,1e-160,1e-300,5e-324", "--format", "json",
                "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    deficits = [row["deficit"] for row in rows]
    assert all(d > 0 for d in deficits)
    assert all(b < a for a, b in zip(deficits, deficits[1:]))
    for row in rows:
        assert row["scaled_deficit"] == pytest.approx(30.0 / 7.0, rel=1e-2)


def test_gaussian_a_deficit_follows_eps_to_the_fourth():
    # P comes from the falling bridge, where psi^2 ~ r and rho ~ r^5, so
    # P/D ~ eps^4; the Picone integral resolves it far below c's ulp
    sc = scenario_catalog("gaussian_a", p=2.0, alpha=2.0, beta=2.0, Q=3.0)
    rows = sweep_quotient(sc, [1e-4, 1e-8, 1e-30, 1e-60])
    assert rows[0].deficit == pytest.approx(4.407e-15, rel=1e-4)
    for row in rows[1:]:
        assert row.deficit / row.epsilon ** 4 == pytest.approx(
            44.0702864569, rel=1e-11)


def test_annulus_deficit_vanishes_once_the_cutoff_is_flat_there():
    # g_eps = 1 on [1, e] for eps <= 1/(2e): G_t = 0, so P = 0 exactly
    name, kw = ANNULUS
    sc = scenario_catalog(name, **kw)
    rows = sweep_quotient(sc, [0.2, 0.18, 1e-2, 1e-300])
    assert rows[0].deficit > 0.0
    assert [row.deficit for row in rows[1:]] == [0.0] * 3
    assert [row.quotient for row in rows[1:]] == [sc.sharp_constant] * 3


@pytest.mark.parametrize("name, kw, eps", [
    ("gaussian_a", dict(p=2.0, alpha=2.0, beta=2.0, Q=3.0), 0.24),
    ("gaussian_b", dict(p=3.0, theta=1.0, alpha=2.0, beta=2.0, Q=5.0), 0.2),
])
def test_sweep_row_is_infinite_where_the_denominator_is_not_positive(
        name, kw, eps):
    # W < 0 near the origin (gaussian_a) or far out (gaussian_b): on a short
    # support D <= 0 and the inequality holds vacuously, as in
    # reduce_radial_functional
    sc = scenario_catalog(name, **kw)
    u = closed_form_maximizer(sc) * plateau_cutoff(eps)
    assert reduce_radial_functional(sc, u).denominator < 0.0
    (row,) = sweep_quotient(sc, [eps])
    assert row.quotient == row.deficit == row.scaled_deficit == math.inf


def test_sweep_errors_come_in_grid_order():
    # the kernel raises a failed integral at any eps before any row is
    # judged: at eps = 1e-100 gaussian_a's D ~ eps^-5 overflows, ahead of
    # the Picone check that a constant 1.5 times too large fails at
    # eps = 1e-2; only a grid whose integrals all end reaches that check
    sc = scenario_catalog("gaussian_a", p=2.0, alpha=2.0, beta=2.0, Q=3.0)
    bad = _with_constant(sc, 1.5 * sc.sharp_constant)
    for case in (sc, bad):
        with pytest.raises(QuadratureError, match="non-finite"):
            sweep_quotient(case, [1e-2, 1e-100])
    with pytest.raises(CheckFailure, match="Picone"):
        sweep_quotient(bad, [1e-2, 1e-3])


def test_overflowing_sweep_fails_without_warnings():
    # the kernel evaluates integrands under np.errstate and names the
    # non-finite value itself: one FAIL line, no numpy RuntimeWarning
    proc = subprocess.run([sys.executable, "-m", "hardylab.cli", "sharpness",
                           "--scenario", "gaussian_a", "--eps-grid", "1e-100"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "RuntimeWarning" not in proc.stderr
    (line,) = proc.stderr.splitlines()
    assert line.startswith("FAIL: non-finite integrand value")


def test_psiR_deficit_p2_exact_and_p3_against_mpmath():
    for row in psiR_deficit(5.0, 2.0, [10.0, 100.0, 1000.0, 1e10, 1e150]):
        assert abs(row["deficit_times_lnR"] - 2.0) <= 8 * np.spacing(2.0)
    import mpmath

    (row,) = psiR_deficit(5.0, 3.0, [1e10])
    # from the definition in t: the Hardy terms over the two bridges, where
    # psi_R = 2 -+ t/ln R (the plateau's terms cancel)
    with mpmath.workdps(30):
        lnR = mpmath.log(mpmath.mpf(10) ** 10)
        g = mpmath.mpf(-2) / 3

        def bridge(sign):
            def f(t):
                psi = 2 - sign * t / lnR
                return (abs(g * psi - sign / lnR) ** 3
                        - abs(g) ** 3 * abs(psi) ** 3)
            return f

        # g psi + 1/ln R changes sign where psi = 1/(|g| ln R)
        kink = -2 * lnR + 1 / abs(g)
        deficit = (mpmath.quad(bridge(-1), [-2 * lnR, kink, -lnR])
                   + mpmath.quad(bridge(1), [lnR, 2 * lnR]))
        assert row["deficit"] == pytest.approx(float(deficit), rel=1e-12)
    # Q = p: gamma = 0 and the remainder is a^p on both bridges
    for row in psiR_deficit(3.0, 3.0, [10.0, 1e10]):
        assert row["deficit"] == pytest.approx(
            2.0 * math.log(row["R"]) ** -2, rel=1e-13)


def test_psiR_deficit_p3_rows_are_pinned():
    # the p = 3 rows, one kernel call over the R grid, bit for bit
    assert [[repr(x) for x in row.values()]
            for row in psiR_deficit(5.0, 3.0, [10.0, 100.0, 1000.0])] == [
        ["10.0", "0.9300237282324147", "2.1414587727587038"],
        ["100.0", "0.44197382745648944", "2.0353646931896705"],
        ["1000.0", "0.2918050162475712", "2.0157176414176283"]]
