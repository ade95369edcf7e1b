import math

import numpy as np
import pytest

from hardylab.functional import reduce_radial_functional
from hardylab.scenarios import (ParameterDomainError, closed_form_lambda1_p2,
                                scenario_catalog)
from hardylab.spectral import (AnnulusProblem, check_lambda1_lower_bound,
                               eigenvalue, shoot)

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


def test_shoot_at_eigenvalue_hits_endpoint():
    val, zeros = shoot(PROB, 0.25 + math.pi ** 2)
    assert abs(val) <= 1e-7
    assert zeros == 0


def test_shoot_matches_general_solution():
    # p=2 solution with phi(a)=0, m(a)=1: phi = a^-s sin(C ln(r/a)) / C * ...
    C = math.sqrt(4.75)
    val, zeros = shoot(PROB, 5.0)
    expected = math.exp(-0.5) * math.sin(C) / C
    assert val == pytest.approx(expected, rel=1e-9)
    assert zeros == 0


def test_shoot_counts_interior_zeros():
    # zeros of sin(C ln r) at ln r = k pi / C, C = sqrt(49.75)
    val, zeros = shoot(PROB, 50.0)
    assert zeros == 2


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
