import hashlib
import itertools
import math
from dataclasses import asdict, replace

import mpmath
import numpy as np
import pytest
from scipy.integrate import solve_ivp

from hardylab import spectral
from hardylab.besselpair import _FLUX_K, certify_flux
from hardylab.functional import reduce_radial_functional
from hardylab.scenarios import (ParameterDomainError, closed_form_lambda1_p2,
                                scenario_catalog)
from hardylab.spectral import (AnnulusProblem, SearchFailureError,
                               check_lambda1_lower_bound, eigenvalue, shoot)
from annulus_sweep import half_period_calls
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
    # 150 to 160 decades are one half-period in t = ln r, where the
    # eigenfunction is built whatever b is: phi = r^(1/2) sin(pi t/L) / peak,
    # kappa = -1, peaks where tan(pi t/L) = -2 pi/L, and is formed relative
    # to that peak
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


# (Q, p, b) with theta = 1, a = 1: an ODE shot in r across [a, b] would end
# on phi's maximum (b = 1e150) or overflow r^(Q-1) (Q = 20, b = 1e200), and a
# search started at the kappa = 0 value puts lam within rounding of c (p = 6,
# 10)
WIDE_CASES = [(1.0, 3.0, 1e150), (20.0, 3.0, 1e30), (5.0, 3.0, 1e200),
              (1.0, 6.0, 1e100), (1.0, 10.0, 1e50)]


@pytest.mark.parametrize("Q, p, b", WIDE_CASES)
def test_wide_annulus_passes_the_half_period_check(Q, p, b):
    res = eigenvalue(AnnulusProblem(Q=Q, p=p, theta=1.0, a=1.0, b=b))
    assert float(half_period_mp(Q, p, 1.0, res.lam)) == pytest.approx(
        math.log(b), rel=1e-11)
    # the check's bound at the default tol is max(tol, 1e-8) = 1e-8
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


def _half_period_calls(Q, p, b, which):
    """The integrand calls of each half-period of the which-th eigenvalue's
    search on (1, b) at theta = 1, its root's check included."""
    with half_period_calls() as counts:
        eigenvalue(AnnulusProblem(Q=Q, p=p, theta=1.0, a=1.0, b=b),
                   which=which)
    return counts


def test_half_periods_converge_in_their_seed_sweep():
    # the knee and dip split points leave the kernel nothing to refine: a
    # seed mesh without them takes two sweeps on 15 of the first 20
    # problems, and 3 to 7 on the 12 nearer c
    readme = [(3.0, 2.0, 2.718281828, 1), (5.0, 3.0, 2.0, 2)]
    for case in readme + list(itertools.product(
            (5.0,), (2.0, 3.0, 4.0), (2.0, math.e, 4.0), (1, 2))):
        assert set(_half_period_calls(*case)) == {1}, case
    # nearer c, (lam - c)/c is 2e-3 to 25
    for case in itertools.product((5.0,), (3.0, 4.0, 6.0), (1e10, 1e50),
                                  (1, 2)):
        assert max(_half_period_calls(*case)) <= 2, case


def test_period_points_at_a_p_whose_square_overflows():
    # p (p-1) = inf makes the dip's half-width 0, and its points w* itself:
    # no overflow, and no point but the knee and w* (c/lam = 1/2, so w* =
    # 2^(-1/p) rounds to 1)
    with np.errstate(all="raise"):
        points = spectral._period_points(1e200, 1.0, 2.0, 1.0)
    assert set(points[0][:2]) == {0.6, 5.0 / 3.0}
    assert np.isnan(points[0][2:]).all()
    assert set(points[1]) == {0.6, 5.0 / 3.0, 1.0}


@pytest.mark.parametrize("Q, p, b, n", [(5.0, 3.0, 1e10, 1),
                                        (11.0, 3.0, 1e50, 1),
                                        (1.0, 4.0, 1e50, 5),
                                        (20.0, 8.0, 1e150, 2)])
def test_gap_to_c_matches_period_integral_near_c(Q, p, b, n):
    # (lam - c)/c is 1.4e-4 to 5.7e-2 here, where the dip's split points are
    # in use; the oracle's bracket is a factor 2 either side of the near-c
    # asymptote, and the float c's rounding alone moves lam - c by 7e-13
    # relative on the second case
    prob = AnnulusProblem(Q=Q, p=p, theta=1.0, a=1.0, b=b)
    c = prob.lemma_lower_bound
    gap = (2.0 * math.pi ** 2 * (p - 1.0) * n ** 2 * c ** ((p - 2.0) / p)
           / (p * math.log(b) ** 2))
    with mpmath.workdps(20):
        ref = annulus_eigenvalue_mp(Q, p, 1.0, 1.0, b, n, dps=20,
                                    bracket=(c + gap / 2, c + 2 * gap))
        ref_gap = float(ref - abs(mpmath.mpf(Q) / p - 1) ** p)
    res = eigenvalue(prob, which=n)
    assert abs((res.lam - c) - ref_gap) <= 1e-10 * ref_gap


def test_gap_at_c_resolution_fails_before_its_integral(monkeypatch, capsys):
    # lam_1 - c = 2.1e-5 is below one ulp of c = 2.5e11 (3.1e-5): the first
    # step, lam = c + 1 ulp, is refused before its half-period integral,
    # which would spend all 4,096 subdivisions and fail to converge
    from hardylab.cli import run

    def integral(*args, **kwargs):
        raise AssertionError("half-period integral taken")

    monkeypatch.setattr(spectral, "integrate_batch", integral)
    assert run(["eig", "--Q", "1e6", "--p", "2", "--theta", "1", "--a", "1",
                "--b", "1e300"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "FAIL: lam - c = 3.0517578125e-05 is within 2.5e+07 ulp(c) of c = "
        "249999000001.0, ulp(c) = 3.0517578125e-05: below c's float "
        "resolution for T(lam)"]


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
    from scipy.optimize import brentq

    from hardylab.scenarios import closed_form_maximizer

    res = eigenvalue(PROB, tol=1e-10)
    sc = scenario_catalog("annulus", Q=3.0, p=2.0, theta=1.0, a=1.0, b=math.e)
    ref = closed_form_maximizer(sc)
    # normalized at its peak, the zero of its derivative, not on the grid
    peak = brentq(ref.derivative, 1.0, math.e, xtol=1e-15)
    r = np.linspace(1.0, math.e, 400)
    ref_vals = ref.value(r) / ref.value(peak)
    assert np.max(np.abs(res.eigenfunction.value(r) - ref_vals)) <= 1e-12


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
    """Dense output of scipy's DOP853 flux shot in r from (phi, m)(a) =
    (0, 1) at rtol 1e-13, and its exact max phi, at the zero of m."""
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
    # misses it by 6e-7..4e-5 there, the eigenfunction built from the period
    # integrand must not miss it by more than the bounds an rtol 1e-11 shot met
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
# division, or another seed mesh of the half-period integrals (their split
# points), moves lam in its last bits on some annulus cases
ORACLE_BITS = [
    (45.21996373315183, 0.6931471805599453),
    (8.485198809177628, 1.5350567286626973),
    (84.94494869089351, 0.6931471805599456),
    (685.3387958821102, 0.34657359027997253),
    (226.52644443763398, 0.7675283643313485),
    (41.58320717926585, 1.151292546497023),
    (252.11739372914613, 1.09861228866811),
    (8.811236831201068, 2.302585092994046),
]


@pytest.mark.parametrize("case", ORACLE_CASES, ids=lambda c: "-".join(
    f"{x:g}" for x in c))
def test_eigenvalue_matches_period_integral(case):
    Q, p, theta, a, b, n = case
    ref = float(annulus_eigenvalue_mp(Q, p, theta, a, b, n))
    res = eigenvalue(AnnulusProblem(Q=Q, p=p, theta=theta, a=a, b=b), which=n)
    assert res.zero_count == n - 1
    assert abs(res.lam - ref) <= 1e-12 * ref
    # the half-period check at the root: which T(lam) meets ln(b/a)
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
    # the eigenfunction's rise from a zero to its peak, is int_0^inf dv /
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
    # Q = p theta makes the equation in t = ln r the plain half-linear one,
    # whose search takes its exact step first: T meets ln(b/a)/n to rounding
    # on thick and thin annuli alike
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


@pytest.mark.parametrize("shift", [1e-6, -1e-6, 1e-7, -1e-7])
def test_lambda_off_by_1e_6_fails_the_check(monkeypatch, shift):
    # half-periods of lam (1 + shift) make the search land on
    # lam_n / (1 + shift); the half-period check at the root, which never
    # calls shoot, rejects it: its which T(lam) misses ln(b/a) by 1.7e-8 to
    # 5.4e-8 relative at 1e-7, past its bound 1e-8 (a 1e-8 shift misses by
    # 1.7e-9 to 5.4e-9, inside it)
    monkeypatch.setattr(spectral, "shoot",
                        lambda problem, lam: shoot(problem, lam * (1 + shift)))
    for Q, p, theta, a, b, n in ORACLE_CASES:
        with pytest.raises(SearchFailureError, match="half-period check"):
            eigenvalue(AnnulusProblem(Q=Q, p=p, theta=theta, a=a, b=b),
                       which=n)


@pytest.mark.parametrize("case", ORACLE_CASES, ids=lambda c: "-".join(
    f"{x:g}" for x in c))
def test_zeros_equally_spaced_in_log_r(case):
    # in t = ln r a solution repeats itself, sign flipped, every T: at lam_n
    # its first zero is at t = ln(b/a) / n, and the eigenfunction (the first
    # half-period's antiperiodic extension) vanishes at every a (b/a)^(k/n)
    Q, p, theta, a, b, n = case
    prob = AnnulusProblem(Q=Q, p=p, theta=theta, a=a, b=b)
    res = eigenvalue(prob, which=n)
    assert (res.lam, shoot(prob, res.lam)) == \
        ORACLE_BITS[ORACLE_CASES.index(case)]
    assert shoot(prob, res.lam) == pytest.approx(math.log(b / a) / n,
                                                 rel=1e-9)
    nodes = a * (b / a) ** (np.arange(1, n + 1) / n)
    assert np.max(np.abs(res.eigenfunction.value(nodes))) <= 1e-9


def _certify_eigenfunction(case, shift=0.0):
    """`certify_flux` on [a, b] of the case's eigenfunction (with a shift,
    one built at lam (1 + shift)) against the annulus power pair at lam."""
    Q, p, theta, a, b, n = case
    prob = AnnulusProblem(Q=Q, p=p, theta=theta, a=a, b=b)
    res = eigenvalue(prob, which=n)
    built = res.lam * (1.0 + shift)
    phi = spectral._eigenfunction(prob, built, n, spectral._half_periods(
        prob, built)) if shift else res.eigenfunction
    pair = replace(scenario_catalog("annulus", **asdict(prob)).pair,
                   lam=res.lam)
    return certify_flux(pair, p, Q - 1.0, None, phi, (a, b)), phi


@pytest.mark.parametrize("case", ORACLE_CASES, ids=lambda c: "-".join(
    f"{x:g}" for x in c))
def test_eigenfunction_satisfies_the_flux_identity(case):
    # the eigenfunction, built from the period integrand without an ODE, by
    # the closed forms' certificate; and phi changes sign n - 1 times on (a, b)
    Q, p, theta, a, b, n = case
    cert, phi = _certify_eigenfunction(case)
    assert max(cert.max_flux_over_budget, cert.max_phi_over_budget) <= _FLUX_K
    signs = np.sign(phi.value(a * (b / a) ** np.linspace(0.0, 1.0, 4001)))
    assert np.count_nonzero(np.diff(signs[signs != 0])) == n - 1


@pytest.mark.parametrize("shift", [1e-8, -1e-8])
@pytest.mark.parametrize("case", [ORACLE_CASES[i] for i in (0, 2, 7)],
                         ids=lambda c: "-".join(f"{x:g}" for x in c))
def test_eigenfunction_off_lambda_fails_the_flux_identity(case, shift):
    # 9.96e4 budgets or more off; against its own lam (1 + shift) a kappa = 0
    # one passes, as the flux identity does not see phi(b) = 0
    cert, _ = _certify_eigenfunction(case, shift)
    assert cert.max_flux_over_budget > 1e3 * _FLUX_K


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
    # the search width is floored at 1e-11, about what the half-periods
    # resolve
    calls = _counting_shoot(monkeypatch)
    for Q, p, theta, a, b, n in ORACLE_CASES:
        prob = AnnulusProblem(Q=Q, p=p, theta=theta, a=a, b=b)
        counts = []
        for tol in (1e-10, 1e-15):
            calls.clear()
            eigenvalue(prob, which=n, tol=tol)
            counts.append(len(calls))
        assert counts[1] <= counts[0], (prob, n, counts)


def test_eig_floats_are_pinned():
    # lam, the zero count and the endpoint residual on 80 problems, bit for
    # bit. lam and the zero count come from the search alone, and their
    # hash moves only with the half-period integrals (it moved when their
    # seed mesh got the knee and dip split points); the residual is the
    # half-period check's relative miss at the root
    rows, found = [], []
    for p, b, which, (Q, theta) in itertools.product(
            (2.0, 2.5, 3.0, 4.0, 8.0), (1.5, math.e, 10.0, 1e3), (1, 2),
            ((5.0, 1.0), (3.0, 2.0))):
        res = eigenvalue(AnnulusProblem(Q=Q, p=p, theta=theta, a=1.0, b=b),
                         which=which)
        rows.append(repr((res.lam, res.zero_count, res.endpoint_residual)))
        found.append(repr((res.lam, res.zero_count)))
    assert hashlib.sha256("\n".join(found).encode()).hexdigest() == \
        "0148e3ecb717adc1354a08747691acba983f39f7c392240446dadaedcaf922d2"
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == \
        "e9cc406c7c95e79e44ca947cd6fffeeb2f6cc635dca341c3fa946167d97d80d7"
