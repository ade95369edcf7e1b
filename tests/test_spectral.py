import math
from dataclasses import replace

import numpy as np
import pytest

from hardylab import spectral
from hardylab.functional import reduce_radial_functional
from hardylab.scenarios import (ParameterDomainError, closed_form_lambda1_p2,
                                scenario_catalog)
from hardylab.spectral import (AnnulusProblem, check_lambda1_lower_bound,
                               eigenvalue, shoot)
from oracles import annulus_eigenvalue_mp, half_period_mp

PROB = AnnulusProblem(Q=3.0, p=2.0, theta=1.0, a=1.0, b=math.e)


def test_problem_validation():
    with pytest.raises(ParameterDomainError):
        AnnulusProblem(Q=3.0, p=2.0, theta=1.0, a=0.0, b=1.0)
    with pytest.raises(ParameterDomainError):
        AnnulusProblem(Q=3.0, p=1.5, theta=1.0, a=1.0, b=2.0)


def test_closed_form_values():
    assert closed_form_lambda1_p2(3.0, 1.0, 1.0, math.e) == pytest.approx(
        0.25 + math.pi ** 2, rel=1e-15)
    # critical weight Q = 2 theta still has a positive eigenvalue
    assert closed_form_lambda1_p2(4.0, 2.0, 1.0, 2.0) == pytest.approx(
        (math.pi / math.log(2.0)) ** 2, rel=1e-15)
    assert closed_form_lambda1_p2(2.0, 1.0, 1.0, math.exp(math.pi)) == \
        pytest.approx(1.0, rel=1e-15)


def _half_period_p2(lam):
    # PROB has p = 2 and kappa = 1: T = pi / sqrt(lam - 1/4)
    return math.pi / math.sqrt(lam - 0.25)


def test_shoot_at_eigenvalue_hits_endpoint():
    # ln(b/a) = 1 for PROB, so n T(lam_n) = 1
    assert shoot(PROB, 0.25 + math.pi ** 2) == pytest.approx(1.0, rel=1e-9)
    assert shoot(PROB, 0.25 + 4.0 * math.pi ** 2) == pytest.approx(
        0.5, rel=1e-9)


def test_shoot_matches_general_solution():
    # phi = e^(-t/2) sin(C t) / C with C = sqrt(4.75) first vanishes at
    # t = pi / C ~ 1.44, past b (t = 1) but inside the span t <= 2
    assert shoot(PROB, 5.0) == pytest.approx(_half_period_p2(5.0), rel=1e-9)


def test_shoot_counts_interior_zeros():
    # T is one half-period whatever the number of zeros in (a, b): three at
    # lam = 50, and none at lam = 2, whose half-period exceeds 2 ln(b/a)
    assert shoot(PROB, 50.0) == pytest.approx(_half_period_p2(50.0),
                                              rel=1e-9)
    assert _half_period_p2(2.0) > 2.0
    assert shoot(PROB, 2.0) == pytest.approx(_half_period_p2(2.0), rel=1e-12)


def test_first_eigenvalue_matches_closed_form():
    res = eigenvalue(PROB, tol=1e-10)
    assert res.lam == pytest.approx(0.25 + math.pi ** 2, rel=1e-8)
    assert res.zero_count == 0
    assert res.endpoint_residual <= 1e-7
    assert check_lambda1_lower_bound(PROB, res)


def test_critical_case_never_zero():
    prob = AnnulusProblem(Q=4.0, p=2.0, theta=2.0, a=1.0, b=math.e ** 2)
    res = eigenvalue(prob)
    assert res.lam == pytest.approx((math.pi / 2.0) ** 2, rel=1e-8)
    assert res.lam > 0
    assert check_lambda1_lower_bound(prob, res)


def test_shot_end_past_the_float_range():
    # the final shot spans 155 and 160 decades; at b = 1e160 a step's
    # fifth-order error estimate underflows to 0, and its zero near b, off by
    # the shot's global error, must not count as interior
    for b in (1e155, 1e160):
        prob = AnnulusProblem(Q=1.0, p=2.0, theta=1.0, a=1.0, b=b)
        assert eigenvalue(prob).lam == pytest.approx(
            closed_form_lambda1_p2(1.0, 1.0, 1.0, b), rel=1e-8)


def test_p2_grid_against_closed_form():
    intervals = [(1.0, 2.0), (1.0, math.e), (0.5, 4.0)]
    for i, Q in enumerate((2.0, 3.0, 5.0)):
        for j, theta in enumerate((0.0, 1.0, 2.0)):
            a, b = intervals[(i + j) % 3]
            prob = AnnulusProblem(Q=Q, p=2.0, theta=theta, a=a, b=b)
            res = eigenvalue(prob)
            assert res.lam == pytest.approx(
                closed_form_lambda1_p2(Q, theta, a, b), rel=1e-8)


def test_p3_lower_bound_and_node_counts():
    prob = AnnulusProblem(Q=5.0, p=3.0, theta=1.0, a=1.0, b=2.0)
    res1 = eigenvalue(prob, which=1)
    assert res1.lam > (2.0 / 3.0) ** 3 + 1e-9
    assert res1.zero_count == 0
    assert check_lambda1_lower_bound(prob, res1)
    res2 = eigenvalue(prob, which=2)
    assert res2.zero_count == 1
    assert res2.lam > res1.lam
    # Rayleigh cross-check: the scenario computes the same lam_1, the
    # eigenfunction's quotient reproduces it and sampled profiles never
    # undercut it
    sc = scenario_catalog("annulus", Q=5.0, p=3.0, theta=1.0, a=1.0, b=2.0)
    assert sc.sharp_constant == res1.lam
    red = reduce_radial_functional(sc, res1.eigenfunction)
    assert red.quotient == pytest.approx(res1.lam, rel=1e-6)
    from hardylab.functional import random_profile_slacks

    rows = random_profile_slacks(sc, 40, seed=6)
    assert min(r["slack"] for r in rows) >= -1e-8


def test_second_eigenvalue_p2():
    res2 = eigenvalue(PROB, which=2)
    assert res2.lam == pytest.approx(0.25 + 4.0 * math.pi ** 2, rel=1e-8)
    assert res2.zero_count == 1


def test_eigenfunction_quotient_equals_lambda1():
    res = eigenvalue(PROB, tol=1e-10)
    sc = scenario_catalog("annulus", Q=3.0, p=2.0, theta=1.0, a=1.0, b=math.e)
    red = reduce_radial_functional(sc, res.eigenfunction)
    assert red.quotient == pytest.approx(res.lam, rel=1e-6)


def test_eigenfunction_matches_p2_closed_form():
    from hardylab.scenarios import closed_form_maximizer

    res = eigenvalue(PROB, tol=1e-10)
    sc = scenario_catalog("annulus", Q=3.0, p=2.0, theta=1.0, a=1.0, b=math.e)
    ref = closed_form_maximizer(sc)
    r = np.linspace(1.0, math.e, 400)
    ref_vals = ref.value(r)
    ref_vals = ref_vals / np.max(np.abs(ref_vals))
    assert np.max(np.abs(res.eigenfunction.value(r) - ref_vals)) <= 1e-6


def test_eigenfunction_positive_inside():
    res = eigenvalue(PROB)
    r = np.linspace(1.0 + 1e-3, math.e - 1e-3, 500)
    assert np.min(res.eigenfunction.value(r)) > 0.0
    assert np.max(np.abs(res.eigenfunction.value(
        np.array([1.0, math.e])))) <= 1e-9


def _tight_shot(problem, lam):
    """Dense output of the flux shot from (phi, m)(a) = (0, 1) at rtol 1e-13,
    written independently of besselpair.solve_flux."""
    from scipy.integrate import solve_ivp

    flux_exp, weight_exp = problem.flux_exponents
    p = problem.p

    def rhs(r, y):
        w = y[1] / r ** flux_exp
        return (math.copysign(abs(w) ** (1.0 / (p - 1.0)), w),
                -lam * r ** weight_exp * abs(y[0]) ** (p - 2.0) * y[0])

    return solve_ivp(rhs, (problem.a, problem.b), (0.0, 1.0), method="DOP853",
                     rtol=1e-13, atol=1e-15, dense_output=True).sol


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
def test_eigenfunction_matches_tight_shot(p):
    # phi is only C^{1,1/(p-1)} at its maximum; a spline through samples
    # misses it by 6e-7..4e-5 there, the shot's own dense output by < 2e-9
    # (the final shot's global error at rtol 1e-11)
    for Q, a, b in ((5.0, 1.0, 2.0), (3.0, 1.0, math.e)):
        prob = AnnulusProblem(Q=Q, p=p, theta=1.0, a=a, b=b)
        res = eigenvalue(prob)
        ref = _tight_shot(prob, res.lam)
        scale = np.max(np.abs(ref(np.linspace(a, b, 1200))[0]))
        r = np.linspace(a, b, 2001)
        phi, m = ref(r)
        w = m / r ** prob.flux_exponents[0]
        slope = np.sign(w) * np.abs(w) ** (1.0 / (p - 1.0))
        assert np.max(np.abs(res.eigenfunction.value(r) - phi / scale)) <= 2e-9
        assert np.max(np.abs(res.eigenfunction.derivative(r)
                             - slope / scale)) <= 2e-8


def test_lambda1_decreases_with_b():
    lams = []
    for b in (2.0, 3.0, 4.0):
        prob = AnnulusProblem(Q=3.0, p=2.0, theta=1.0, a=1.0, b=b)
        lams.append(eigenvalue(prob).lam)
    assert lams[0] > lams[1] > lams[2]


def _pi_p(p):
    return 2.0 * math.pi * (p - 1.0) ** (1.0 / p) / (p * math.sin(math.pi / p))


# (Q, p, theta, a, b, n): every p with two signs of kappa = Q - p theta
ORACLE_CASES = [
    (5.0, 2.5, 1.0, 1.0, 2.0, 1),       # kappa > 0
    (2.0, 2.5, 2.0, 1.0, 100.0, 3),     # kappa < 0
    (3.0, 3.0, 1.0, 1.0, 2.0, 1),       # kappa = 0
    (5.0, 3.0, 1.0, 1.0, 2.0, 2),       # kappa > 0
    (1.0, 4.0, 1.0, 1.0, 10.0, 3),      # kappa < 0
    (6.0, 4.0, 1.5, 0.5, 5.0, 2),       # kappa = 0
    (8.0, 6.0, 1.0, 1.0, 3.0, 1),       # kappa > 0
    (1.0, 6.0, 1.0, 1.0, 100.0, 2),     # kappa < 0
]


@pytest.mark.parametrize("case", ORACLE_CASES, ids=lambda c: "-".join(
    f"{x:g}" for x in c))
def test_eigenvalue_matches_period_integral(case):
    Q, p, theta, a, b, n = case
    ref = float(annulus_eigenvalue_mp(Q, p, theta, a, b, n))
    res = eigenvalue(AnnulusProblem(Q=Q, p=p, theta=theta, a=a, b=b), which=n)
    assert res.zero_count == n - 1
    assert abs(res.lam - ref) <= 1e-12 * ref
    # the final ODE shot, independent of the quadrature, ends on a zero
    assert res.endpoint_residual <= 1e-9


def test_period_integral_oracle_closed_forms():
    # kappa = 0: (n pi_p / L)^p; p = 2: ((Q - 2 theta)/2)^2 + (n pi / L)^2
    assert float(annulus_eigenvalue_mp(3.0, 3.0, 1.0, 1.0, 2.0, 2)) == \
        pytest.approx((2 * _pi_p(3.0) / math.log(2.0)) ** 3, rel=1e-14)
    assert float(annulus_eigenvalue_mp(5.0, 2.0, 0.5, 1.0, 7.0, 2)) == \
        pytest.approx(4.0 + (2 * math.pi / math.log(7.0)) ** 2, rel=1e-14)


@pytest.mark.parametrize("kappa", [1.5, -1.5])
def test_half_period_p2_closed_form(kappa):
    # T = pi / sqrt(lam - kappa^2/4), from next to the peak of the
    # kappa v < 0 side's integrand (lam -> c) to far above c
    prob = AnnulusProblem(Q=2.0 + kappa, p=2.0, theta=1.0, a=1.0, b=2.0)
    c = prob.lemma_lower_bound
    for gap in (1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e3):
        lam = c + gap * c
        assert shoot(prob, lam) == pytest.approx(math.pi / math.sqrt(lam - c),
                                                 rel=1e-13)


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 6.0])
def test_half_period_kappa_zero_closed_form(p):
    prob = AnnulusProblem(Q=2.0 * p, p=p, theta=2.0, a=1.0, b=2.0)
    for lam in (1e-6, 1e-2, 1.0, 1e3):
        assert shoot(prob, lam) == pytest.approx(_pi_p(p) / lam ** (1.0 / p),
                                                 rel=1e-13)


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 6.0])
def test_half_period_matches_period_integral(p):
    # both signs of kappa = Q - p theta; the float c is an ulp off the exact
    # one, which moves T by ~1e-16/gap relative (1e-10 at gap = 1e-6)
    for Q in (1.0, 8.0):
        prob = AnnulusProblem(Q=Q, p=p, theta=1.0, a=1.0, b=2.0)
        c = prob.lemma_lower_bound
        for gap in (1e-2, 1.0, 1e2):
            lam = c + gap * c
            ref = float(half_period_mp(Q, p, 1.0, lam))
            assert shoot(prob, lam) == pytest.approx(ref, rel=1e-12)


def test_lemma_check_margin_is_the_search_tolerance():
    c = PROB.lemma_lower_bound
    res = eigenvalue(PROB)
    assert check_lambda1_lower_bound(PROB, res)
    for lam in (0.5 * c, c, c * (1.0 + 1e-10)):
        assert not check_lambda1_lower_bound(PROB, replace(res, lam=lam))


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 6.0])
def test_kappa_zero_is_pi_p_closed_form(p):
    # Q = p theta makes the equation in t = ln r the plain half-linear one
    for n, (a, b) in ((1, (1.0, 2.0)), (3, (0.5, 20.0))):
        prob = AnnulusProblem(Q=2.0 * p, p=p, theta=2.0, a=a, b=b)
        res = eigenvalue(prob, which=n)
        assert res.lam == pytest.approx(
            (n * _pi_p(p) / math.log(b / a)) ** p, rel=1e-10)


def test_tolerance_below_double_resolution_converges():
    # the bracket cannot close below a few ulps of u, whatever tol asks for
    prob = AnnulusProblem(Q=1.0, p=6.0, theta=1.0, a=1.0, b=10.0)
    res = eigenvalue(prob, which=2, tol=1e-300)
    assert res.lam == pytest.approx(eigenvalue(prob, which=2).lam, rel=1e-10)
    assert res.zero_count == 1


def _counting_shoot(monkeypatch):
    calls = []

    def counting(problem, lam):
        calls.append(lam)
        return shoot(problem, lam)

    monkeypatch.setattr(spectral, "shoot", counting)
    return calls


def test_p2_takes_at_most_two_shots(monkeypatch):
    calls = _counting_shoot(monkeypatch)
    for Q, theta, b, n in ((3.0, 1.0, math.e, 1), (5.0, 0.0, 2.0, 2),
                           (0.5, 4.0, 100.0, 3), (8.0, 2.5, 1.05, 5)):
        calls.clear()
        res = eigenvalue(AnnulusProblem(Q=Q, p=2.0, theta=theta, a=1.0, b=b),
                         which=n)
        assert res.lam == pytest.approx(
            ((Q - 2 * theta) / 2) ** 2 + (n * math.pi / math.log(b)) ** 2,
            rel=1e-10)
        assert 1 <= len(calls) <= 2


@pytest.mark.parametrize("case", ORACLE_CASES, ids=lambda c: "-".join(
    f"{x:g}" for x in c))
def test_zeros_equally_spaced_in_log_r(case):
    # in t = ln r the shot repeats itself, sign flipped, every T: at lam_n
    # its first zero is at t = ln(b/a) / n, and the eigenfunction (the final
    # shot over [a, b]) vanishes at every a (b/a)^(k/n)
    Q, p, theta, a, b, n = case
    prob = AnnulusProblem(Q=Q, p=p, theta=theta, a=a, b=b)
    res = eigenvalue(prob, which=n)
    assert shoot(prob, res.lam) == pytest.approx(math.log(b / a) / n,
                                                 rel=1e-9)
    nodes = a * (b / a) ** (np.arange(1, n + 1) / n)
    assert np.max(np.abs(res.eigenfunction.value(nodes))) <= 1e-9


@pytest.mark.parametrize("b, n", [(1e10, 5), (1e12, 4)])
def test_wide_annulus_counts_zeros_near_a(b, n):
    # the zeros sit at (b/a)^(k/n): the first is ~1e2 past a = 1 here, inside
    # any margin of 1e-8 (b - a)
    prob = AnnulusProblem(Q=3.0, p=2.0, theta=1.0, a=1.0, b=b)
    res = eigenvalue(prob, which=n)
    assert res.zero_count == n - 1
    assert res.lam == pytest.approx(0.25 + (n * math.pi / math.log(b)) ** 2,
                                    rel=1e-8)


def test_tolerance_below_shot_accuracy_costs_no_shots(monkeypatch):
    # the search width is floored at the shots' own rtol
    calls = _counting_shoot(monkeypatch)
    for Q, p, theta, a, b, n in ORACLE_CASES:
        prob = AnnulusProblem(Q=Q, p=p, theta=theta, a=a, b=b)
        counts = []
        for tol in (1e-10, 1e-15):
            calls.clear()
            eigenvalue(prob, which=n, tol=tol)
            counts.append(len(calls))
        assert counts[1] <= counts[0], (prob, n, counts)
