import hashlib
import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from hardylab import spectral
from hardylab.functional import reduce_radial_functional
from hardylab.scenarios import (ParameterDomainError, closed_form_lambda1_p2,
                                scenario_catalog)
from hardylab.spectral import (AnnulusProblem, SearchFailureError,
                               check_lambda1_lower_bound, eigenvalue, shoot,
                               solve_flux)
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
    # 150 to 160 decades are one half-period in t = ln r, where the shot runs
    # whatever b is: phi = r^(1/2) sin(pi t/L) / peak, kappa = -1, peaks where
    # tan(pi t/L) = -2 pi/L, and is formed relative to that peak
    for b in (1e150, 1e155, 1e160):
        prob = AnnulusProblem(Q=1.0, p=2.0, theta=1.0, a=1.0, b=b)
        res = eigenvalue(prob)
        assert res.lam == pytest.approx(
            closed_form_lambda1_p2(1.0, 1.0, 1.0, b), rel=1e-8)
        L = math.log(b)
        omega = math.pi / L
        t_peak = (math.pi - math.atan(2.0 * omega)) / omega
        t = np.linspace(0.0, L, 2001)
        exact = (np.exp(0.5 * (t - t_peak)) * np.sin(omega * t)
                 / math.sin(omega * t_peak))
        assert np.max(np.abs(res.eigenfunction.value(np.exp(t)) - exact)) \
            <= 2e-9


# (Q, p, b) with theta = 1, a = 1: a shot in r across [a, b] ends on phi's
# maximum (b = 1e150) or overflows r^(Q-1) (Q = 20, b = 1e200), and a search
# started at the kappa = 0 value puts lam within rounding of c (p = 6, 10)
WIDE_CASES = [(1.0, 3.0, 1e150), (20.0, 3.0, 1e30), (5.0, 3.0, 1e200),
              (1.0, 6.0, 1e100), (1.0, 10.0, 1e50)]


@pytest.mark.parametrize("Q, p, b", WIDE_CASES)
def test_wide_annulus_passes_the_half_period_check(Q, p, b):
    res = eigenvalue(AnnulusProblem(Q=Q, p=p, theta=1.0, a=1.0, b=b))
    assert float(half_period_mp(Q, p, 1.0, res.lam)) == pytest.approx(
        math.log(b), rel=1e-11)
    # the check's bound at the default tol is max(1e-8, 1e3 rtol) = 1e-8
    assert res.endpoint_residual <= 1e-8
    assert np.max(np.abs(res.eigenfunction.value(
        np.geomspace(1.0, b, 1001)))) <= 1.0 + 1e-12


def test_search_starts_near_c_on_a_wide_annulus():
    # the roots sit at (lam - c)/c ~ 5e-4 and 2e-3; mpmath's secant from the
    # kappa = 0 value fails on both, its Anderson solver from a bracket does not
    c = (5.0 / 6.0) ** 6
    res = eigenvalue(AnnulusProblem(Q=1.0, p=6.0, theta=1.0, a=1.0, b=1e100))
    ref = float(annulus_eigenvalue_mp(1.0, 6.0, 1.0, 1.0, 1e100,
                                      bracket=(c * (1 + 1e-5), c * 1.01)))
    assert res.lam == pytest.approx(ref, rel=1e-12)
    assert res.lam == pytest.approx(0.33504876997091, rel=1e-13)
    res = eigenvalue(AnnulusProblem(Q=1.0, p=10.0, theta=1.0, a=1.0, b=1e50))
    assert res.lam == pytest.approx(0.34926977176674, rel=1e-13)
    assert float(half_period_mp(1.0, 10.0, 1.0, res.lam)) == pytest.approx(
        math.log(1e50), rel=1e-12)


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


def _flux_exponents(problem):
    """Powers of r multiplying the flux and the zeroth-order term."""
    return (problem.Q - 1.0 - problem.p * (problem.theta - 1.0),
            problem.Q - 1.0 - problem.p * problem.theta)


def _tight_shot(problem, lam):
    """Dense output of the flux shot in r from (phi, m)(a) = (0, 1) at rtol
    1e-13, written independently of spectral.solve_flux, and its exact
    max phi, at the zero of m."""
    from scipy.optimize import brentq

    flux_exp, weight_exp = _flux_exponents(problem)
    p = problem.p

    def rhs(r, y):
        w = y[1] / r ** flux_exp
        return (math.copysign(abs(w) ** (1.0 / (p - 1.0)), w),
                -lam * r ** weight_exp * abs(y[0]) ** (p - 2.0) * y[0])

    dense = solve_ivp(rhs, (problem.a, problem.b), (0.0, 1.0), method="DOP853",
                      rtol=1e-13, atol=1e-15, dense_output=True).sol
    peak = brentq(lambda r: dense(r)[1], problem.a, problem.b, xtol=1e-15)
    return dense, dense(peak)[0]


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
def test_eigenfunction_matches_tight_shot(p):
    # phi is only C^{1,1/(p-1)} at its maximum; a spline through samples
    # misses it by 6e-7..4e-5 there, the shot read by steps from its step
    # ends by < 2e-9 (the final shot's global error at rtol 1e-11)
    for Q, a, b in ((5.0, 1.0, 2.0), (3.0, 1.0, math.e)):
        prob = AnnulusProblem(Q=Q, p=p, theta=1.0, a=a, b=b)
        res = eigenvalue(prob)
        ref, scale = _tight_shot(prob, res.lam)
        r = np.linspace(a, b, 2001)
        phi, m = ref(r)
        w = m / r ** _flux_exponents(prob)[0]
        slope = np.sign(w) * np.abs(w) ** (1.0 / (p - 1.0))
        assert np.max(np.abs(res.eigenfunction.value(r) - phi / scale)) <= 2e-9
        assert np.max(np.abs(res.eigenfunction.derivative(r)
                             - slope / scale)) <= 2e-8


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
def test_eigenfunction_peaks_at_exactly_one(p):
    # max |phi| = 1 at the zero of phi', found by root-finding, not on a grid
    from scipy.optimize import brentq

    for Q, a, b in ((5.0, 1.0, 2.0), (3.0, 1.0, math.e)):
        phi = eigenvalue(AnnulusProblem(Q=Q, p=p, theta=1.0, a=a, b=b)
                         ).eigenfunction
        peak = brentq(phi.derivative, a, b, xtol=1e-15)
        assert abs(phi.value(peak) - 1.0) <= 1e-12
        assert np.max(np.abs(phi.value(np.linspace(a, b, 4001)))) <= 1.0 + 1e-12


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
# the bits of each case's eigenvalue and of shoot there, which sums the two
# half-period integrals before it divides by lam^(1/p): a reordered sum or
# division moves lam in its last bits on some annulus cases
ORACLE_BITS = [
    (45.21996373315181, 0.6931471805599454),
    (8.48519880917763, 1.5350567286626975),
    (84.94494869089351, 0.6931471805599455),
    (685.3387958821102, 0.3465735902799724),
    (226.52644443763378, 0.7675283643313486),
    (41.58320717926581, 1.151292546497023),
    (252.11739372914568, 1.0986122886681102),
    (8.811236831201063, 2.302585092994047),
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


@pytest.mark.parametrize("kappa", [1.5, -1.5, 0.0])
def test_half_period_p2_closed_form(kappa):
    # T = pi / u, u = sqrt(lam - kappa^2/4), from next to the peak of the
    # kappa v < 0 side's integrand (lam -> c) to far above c; its v > 0 half,
    # the shot's rise from a zero to the turning point, is int_0^inf dv /
    # ((v + kappa/2)^2 + u^2) = (pi/2 - atan(kappa/(2u))) / u, written as
    # atan2(2u, kappa) / u to spare the closed form a cancellation
    prob = AnnulusProblem(Q=2.0 + kappa, p=2.0, theta=1.0, a=1.0, b=2.0)
    c = prob.lemma_lower_bound
    for gap in (1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e3):
        lam = c + gap * (c or 1.0)
        u = math.sqrt(lam - c)
        assert shoot(prob, lam) == pytest.approx(math.pi / u, rel=1e-13)
        rise = spectral._half_periods(prob, lam)[0 if kappa >= 0 else 1]
        assert rise / math.sqrt(lam) == pytest.approx(
            math.atan2(2.0 * u, kappa) / u, rel=1e-13)


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
    # Q = p theta makes the equation in t = ln r the plain half-linear one;
    # the shot's flux is scaled so that y stays of order 1, else y ~ 1e-4 on
    # the thin annulus and the absolute tolerance 1e-13 shows in the residual
    for n, (a, b) in ((1, (1.0, 2.0)), (3, (0.5, 20.0)), (3, (1.0, 1.001))):
        prob = AnnulusProblem(Q=2.0 * p, p=p, theta=2.0, a=a, b=b)
        res = eigenvalue(prob, which=n)
        assert res.lam == pytest.approx(
            (n * _pi_p(p) / math.log(b / a)) ** p, rel=1e-10)
        assert res.endpoint_residual <= 1e-11


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


@pytest.mark.parametrize("shift", [1e-6, -1e-6])
def test_lambda_off_by_1e_6_fails_the_check(monkeypatch, shift):
    # half-periods of lam (1 + shift) make the search land on
    # lam_n / (1 + shift); the final shot, which never calls shoot, rejects it
    monkeypatch.setattr(spectral, "shoot",
                        lambda problem, lam: shoot(problem, lam * (1 + shift)))
    for Q, p, theta, a, b, n in ORACLE_CASES:
        with pytest.raises(SearchFailureError, match="half-period check"):
            eigenvalue(AnnulusProblem(Q=Q, p=p, theta=theta, a=a, b=b),
                       which=n)


@pytest.mark.parametrize("case", ORACLE_CASES, ids=lambda c: "-".join(
    f"{x:g}" for x in c))
def test_zeros_equally_spaced_in_log_r(case):
    # in t = ln r the shot repeats itself, sign flipped, every T: at lam_n
    # its first zero is at t = ln(b/a) / n, and the eigenfunction (the shot's
    # antiperiodic extension) vanishes at every a (b/a)^(k/n)
    Q, p, theta, a, b, n = case
    prob = AnnulusProblem(Q=Q, p=p, theta=theta, a=a, b=b)
    res = eigenvalue(prob, which=n)
    assert (res.lam, shoot(prob, res.lam)) == \
        ORACLE_BITS[ORACLE_CASES.index(case)]
    assert shoot(prob, res.lam) == pytest.approx(math.log(b / a) / n,
                                                 rel=1e-9)
    nodes = a * (b / a) ** (np.arange(1, n + 1) / n)
    assert np.max(np.abs(res.eigenfunction.value(nodes))) <= 1e-9


@pytest.mark.parametrize("b, n", [(1e10, 5), (1e12, 4)])
def test_wide_annulus_counts_zeros_near_a(b, n):
    # the zeros sit at (b/a)^(k/n), the first ~1e2 past a = 1 here; the
    # eigenfunction changes sign at each of them and nowhere else
    prob = AnnulusProblem(Q=3.0, p=2.0, theta=1.0, a=1.0, b=b)
    res = eigenvalue(prob, which=n)
    assert res.zero_count == n - 1
    t = math.log(b) * (np.arange(1000) + 0.5) / 1000
    signs = np.sign(res.eigenfunction.value(np.exp(t)))
    assert np.count_nonzero(np.diff(signs)) == n - 1
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


def _scalar_rhs(A, B, p, drift):
    """solve_flux's RHS: the right-hand side scipy's solve_ivp steps."""
    def rhs(r, y):
        w = y[1] / A
        return (math.copysign(abs(w) ** (1.0 / (p - 1.0)), w) + drift * y[0],
                -drift * y[1] - B * abs(y[0]) ** (p - 2.0) * y[0])

    return rhs


def _record_solves(monkeypatch):
    """Route every solve_flux solve through a recorder that also runs scipy's
    own solve_ivp(method="DOP853") on the same RHS, span and tolerances."""
    pairs = []
    solve = spectral.solve_flux

    def both(A, B, p, span, y0, drift):
        ours = solve(A, B, p, span, y0, drift)
        pairs.append((ours, solve_ivp(_scalar_rhs(A, B, p, drift), span, y0,
                                      method="DOP853", rtol=spectral._RTOL,
                                      atol=spectral._ATOL, dense_output=True)))
        return ours

    monkeypatch.setattr(spectral, "solve_flux", both)
    return pairs


def test_float_stepper_matches_scipy_dop853(monkeypatch):
    # the two differ only in the rounding of the stage sums (BLAS orders them
    # its own way); for p != 2 that can tip the accept/reject decision of a
    # step across a turning point of phi, where the flux is only
    # C^{1,1/(p-1)}, and part single solves by a few percent of their steps
    # and ~1e2 rtol in the state. No solve here takes such a step: the
    # annulus shot's rise ends at the turning time that the period integral
    # gives, and its fall restarts there, so the states agree to ~1e-11.
    # scipy's nfev also counts the 3 stages of each dense piece it builds,
    # which `solve_flux` has none of: compare accepted steps
    pairs = _record_solves(monkeypatch)
    for p in (2.0, 2.5, 3.0, 4.0, 6.0):
        for b in (2.0, math.e, 4.0):
            eigenvalue(AnnulusProblem(Q=5.0, p=p, theta=1.0, a=1.0, b=b))
    assert len(pairs) > 20
    for ours, ref in pairs:
        assert ours.t[-1] == ref.t[-1]
        final = np.abs(ref.y[:, -1])
        assert np.max(np.abs(ours.y[:, -1] - ref.y[:, -1])) <= 1e-9 * np.max(final)
    total = sum(len(ref.t) - 1 for _, ref in pairs)
    assert abs(sum(len(ours.t) - 1 for ours, _ in pairs) - total) <= 0.02 * total


def test_eig_floats_are_pinned():
    # lam, the zero count and the endpoint residual on 80 problems, bit for
    # bit: the search and the shot's step ends give them, so the way the
    # eigenfunction is read between step ends may not move one of them
    rows = []
    for p, b, which, (Q, theta) in itertools.product(
            (2.0, 2.5, 3.0, 4.0, 8.0), (1.5, math.e, 10.0, 1e3), (1, 2),
            ((5.0, 1.0), (3.0, 2.0))):
        res = eigenvalue(AnnulusProblem(Q=Q, p=p, theta=theta, a=1.0, b=b),
                         which=which)
        rows.append(repr((res.lam, res.zero_count, res.endpoint_residual)))
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == \
        "42ae6408f570f32e68e456cecf74f437ac756eb1da1d1a23258550a58bc2bc9c"


def test_float_stepper_dense_output_hits_step_ends(monkeypatch):
    pairs = _record_solves(monkeypatch)
    eigenvalue(AnnulusProblem(Q=5.0, p=4.0, theta=1.0, a=1.0, b=2.0))
    eigenvalue(AnnulusProblem(Q=3.0, p=3.0, theta=2.0, a=1.0, b=4.0))
    assert len(pairs) == 4
    for sol, _ in pairs:
        # at a step end sol takes a step of size 0 from it; one ulp below, it
        # takes nearly the whole step the solve took, over arrays
        assert np.array_equal(sol.sol(sol.t), sol.y)
        below = sol.sol(np.nextafter(sol.t[1:], -np.inf))
        ulp = np.spacing(np.max(np.abs(sol.y)))
        assert np.max(np.abs(below - sol.y[:, 1:])) <= 16 * ulp
        assert sol.sol(sol.t[0]).shape == (2,)


def test_sol_is_cos_sin_and_evaluates_no_rhs():
    # phi'' = -2.25 phi: p = 2, A = 1, B = 2.25, no drift
    sol = solve_flux(1.0, 2.25, 2.0, (1.0, 10.0), (1.0, -1.5), 0.0)
    steps, solved = len(sol.t) - 1, sol.nfev
    assert steps > 5 and (solved - 2) % 12 == 0
    r = np.linspace(1.0, 10.0, 101)
    first = sol.sol(r)
    x = 1.5 * (r - 1.0)
    assert np.max(np.abs(first[0] - (np.cos(x) - np.sin(x)))) <= 1e-9
    assert np.max(np.abs(first[1] + 1.5 * (np.sin(x) + np.cos(x)))) <= 1e-9
    assert np.array_equal(sol.sol(r[::-1])[:, ::-1], first)
    assert sol.nfev == solved


def test_generated_stages_are_the_tableau_rows_summed_in_order():
    # the straight-line stage code against the tableau summed by loops, each
    # row from 0.0 in its order, with the RHS taken stage by stage
    def combine(K, row):
        d0 = d1 = 0.0
        for j, a in row.items():
            d0 += K[j][0] * a
            d1 += K[j][1] * a
        return d0, d1

    def add_stages(K, y, h, stages, rhs):
        for _, row in stages:
            d0, d1 = combine(K, row)
            z = (y[0] + d0 * h, y[1] + d1 * h)
            K.append(rhs(0.0, z))
        return z

    rng = np.random.default_rng(27)
    for p, d in ((2.0, 0.0), (3.0, 0.7), (2.5, -1.3), (8.0, 0.0)):
        y, f = (tuple(rng.normal(size=2).tolist()) for _ in range(2))
        h = float(rng.uniform(0.01, 0.2))
        A, B = float(rng.uniform(0.5, 2.0)), float(rng.normal())
        rhs = _scalar_rhs(A, B, p, d)
        args = (A, B, 1.0 / (p - 1.0), p - 2.0, d)
        assert spectral._slope(*y, 0.0, (), *args) == rhs(0.0, y)
        K = [f]
        y_new = add_stages(K, y, h, spectral._STAGES, rhs)
        flat, *rest = spectral._step(*y, h, f, *args)
        assert flat == tuple(x for k in K for x in k)
        assert rest == [y_new, combine(K, spectral._E5),
                        combine(K, spectral._E3)]
        # the same lines over numpy arrays, two step sizes at once, give the
        # float step's y_new; numpy's power may round apart from libm's
        hs = np.array([h, h / 3.0])
        over = np.array(spectral._step_to(*y, hs, f, *args)).T
        for step, z in zip(hs.tolist(), over):
            ref = spectral._step(*y, step, f, *args)[1]
            assert np.max(np.abs(z - ref)) <= 4 * np.spacing(np.max(np.abs(ref)))


def test_dop853_tableau_is_scipys_bitwise():
    # rows 1-12 of A (row 12 is B) with C, B and the two error weights
    from scipy.integrate._ivp import dop853_coefficients as ref

    A, C = np.zeros((13, 16)), np.zeros(13)
    for i, (c, row) in enumerate(spectral._STAGES, 1):
        C[i] = c
        A[i, list(row)] = list(row.values())
    E = np.zeros((2, 13))
    for i, row in enumerate((spectral._E3, spectral._E5)):
        E[i, list(row)] = list(row.values())
    B = np.zeros(12)
    B[list(spectral._STAGES[-1][1])] = list(spectral._STAGES[-1][1].values())
    for ours, theirs in ((A, ref.A[:13]), (C, ref.C[:13]), (B, ref.B),
                         (E[0], ref.E3), (E[1], ref.E5)):
        assert ours.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("A, y0, t, fault", [
    pytest.param(1.0, (1e200, 0.0), None,            # |phi|^(p-2) = 1e400
                 "float overflow in the right-hand side", id="overflow"),
    pytest.param(0.0, (1.0, 0.0), None,              # m / A, A = 0
                 "float division by zero in the right-hand side",
                 id="zero_division"),
    pytest.param(1.0, (1.0, -1.5), [0.5, 1e200],     # a read 1e200 past the end
                 r"float overflow encountered in [\w ]+ while reading the "
                 "solution", id="sol_far_outside"),
])
def test_float_overflow_in_the_rhs_is_a_search_failure(A, y0, t, fault):
    # the message names the fault, not the errno tuple of an OverflowError,
    # and a read of the solve raises no numpy RuntimeWarning
    with pytest.raises(SearchFailureError,
                       match=f"^ODE integration failed: {fault}$"):
        solve_flux(A, 1.0, 4.0, (0.0, 1.0), y0, 0.0).sol(t)


def test_stiff_solve_ends_at_the_rhs_budget():
    # B = 1e16 makes phi'' = -1e16 phi turn 1.6e7 times on the span: without
    # a budget the solve would take ~1e8 steps
    start = time.perf_counter()
    with pytest.raises(SearchFailureError,
                       match="more than 1000000 RHS evaluations"):
        solve_flux(1.0, 1e16, 2.0, (0.0, 1.0), (1.0, 0.0), 0.0)
    assert time.perf_counter() - start < 60.0


def test_ode_scale_invariance():
    # p = 2 with a drift: the solve is linear, so c phi_0 gives c phi
    p, t = 2.0, np.linspace(0.0, 4.0, 600)
    ref = solve_flux(1.0, 2.25, p, (0.0, 4.0), (1.0, -1.5),
                     drift=0.5).sol(t)[0]
    for c in (2.0, -1.0, 10.0):
        y0 = (c * 1.0, abs(c) ** (p - 2.0) * c * -1.5)
        phi = solve_flux(1.0, 2.25, p, (0.0, 4.0), y0, drift=0.5).sol(t)[0]
        scale = np.max(np.abs(c * ref))
        assert np.max(np.abs(phi - c * ref)) <= 1e-8 * scale


def test_ode_scale_invariance_p3():
    t = np.linspace(0.0, 3.0, 600)
    ref = solve_flux(1.3, 0.7, 3.0, (0.0, 3.0), (1.0, -0.8),
                     drift=-0.4).sol(t)[0]
    c = 2.0
    # momentum scales like |c|^(p-2) c = c^2 for p=3, c>0
    sol = solve_flux(1.3, 0.7, 3.0, (0.0, 3.0), (c, c ** 2.0 * -0.8),
                     drift=-0.4).sol(t)[0]
    assert np.max(np.abs(sol - c * ref)) <= 1e-8 * np.max(np.abs(c * ref))


def test_span_that_does_not_run_forward_is_a_value_error():
    # the shot only steps forward: a zero or backward span is a caller's error
    for span in ((1.0, 1.0), (10.0, 1.0)):
        with pytest.raises(ValueError, match="does not run forward"):
            solve_flux(1.0, 2.25, 2.0, span, (1.0, -1.5), 0.0)
