import math

import numpy as np
import pytest

from hardylab.functional import reduce_radial_functional
from hardylab.geometry import (SingularPointError, UnsupportedModelError,
                               cylindrical_orthogonality_error,
                               cylindrical_split, direct_rayleigh, euclidean,
                               gauge_eval, gauge_gradient_fd_error, greiner,
                               grushin, homogeneity_error,
                               measure_homogeneity_check, strip_quotient,
                               vandermonde, vandermonde_checks,
                               vandermonde_gradient)
from hardylab.profiles import Profile, smooth_bump
from hardylab.scenarios import ParameterDomainError, scenario_catalog


def _sample_points(rng, dims, n=200):
    return rng.uniform(0.3, 1.5, size=(n, dims)) * rng.choice(
        [-1.0, 1.0], size=(n, dims))


def test_gauge_closed_forms():
    gre = greiner(1, 1.0)
    out = gauge_eval(gre, [1.0, 0.0, 0.0])
    assert out["d"] == pytest.approx(1.0)
    assert out["grad_gauge_mag"] == pytest.approx(1.0)
    assert greiner(1, 2.0).Q == pytest.approx(6.0)
    gru = grushin(1, 1, 1.0)
    out2 = gauge_eval(gru, [0.0, 1.0])
    assert out2["d"] == pytest.approx(1.0)
    assert out2["grad_gauge_mag"] == pytest.approx(0.0)
    assert gru.Q == pytest.approx(3.0)
    assert euclidean(4).Q == pytest.approx(4.0)


def test_origin_is_singular():
    with pytest.raises(SingularPointError):
        gauge_eval(grushin(1, 1, 1.0), [0.0, 0.0])


def test_homogeneity_all_models():
    for model in (euclidean(3), grushin(1, 1, 1.0), grushin(2, 1, 0.5),
                  greiner(1, 1.0), greiner(1, 2.0), cylindrical_split(2, 3)):
        assert homogeneity_error(model, 1000) <= 1e-12


def test_gradient_closed_forms_match_fd():
    rng = np.random.default_rng(21)
    for model in (euclidean(3), grushin(1, 1, 1.0), grushin(2, 1, 0.5),
                  greiner(1, 1.0), greiner(1, 2.0)):
        pts = _sample_points(rng, model.dims)
        assert gauge_gradient_fd_error(model, pts) <= 1e-6, model.kind


def test_grushin_degenerates_to_euclidean():
    rng = np.random.default_rng(4)
    pts = rng.uniform(-2.0, 2.0, size=(200, 3))
    g0 = grushin(2, 1, 0.0)
    assert np.max(np.abs(g0.gauge(pts) - np.linalg.norm(pts, axis=1))) <= 1e-12
    assert np.max(np.abs(g0.grad_gauge_mag(pts) - 1.0)) <= 1e-12
    gk0 = grushin(3, 0, 1.0)
    assert np.max(np.abs(gk0.gauge(pts) - np.linalg.norm(pts, axis=1))) <= 1e-12


def test_cylindrical_orthogonality():
    assert cylindrical_orthogonality_error(greiner(1, 1.0)) <= 1e-12
    assert cylindrical_orthogonality_error(greiner(2, 2.0)) <= 1e-12
    with pytest.raises(UnsupportedModelError):
        cylindrical_orthogonality_error(euclidean(3))


def test_measure_scaling_euclidean_volumes():
    res = measure_homogeneity_check(euclidean(3), 0.0, 1.0, 2.0, 10 ** 6,
                                    seed=2)
    assert res["expected"] == pytest.approx(8.0)
    assert abs(res["ratio"].mean - 8.0) <= 0.01 * 8.0
    assert res["pass"] or res["inconclusive"] is False


def test_measure_scaling_identical_radii():
    res = measure_homogeneity_check(greiner(1, 1.0), 2.0, 1.0, 1.0, 1000,
                                    seed=3)
    assert res["ratio"].mean == 1.0
    assert res["ratio"].std_error == 0.0
    assert res["pass"]


def test_measure_scaling_rejects_bad_input():
    with pytest.raises(ParameterDomainError):
        measure_homogeneity_check(euclidean(2), 2.0, 2.0, 1.0, 100)
    with pytest.raises(UnsupportedModelError):
        measure_homogeneity_check(cylindrical_split(2, 3), 0.0, 1.0, 2.0, 100)


def test_strip_quotient_bounds_and_rate():
    qs = []
    for eps in (3e-2, 1e-2, 3e-3, 1e-3):
        q = strip_quotient(1.0, eps)
        assert q > 0.25
        qs.append(q)
    assert qs == sorted(qs, reverse=True)   # decreasing toward 1/4
    scaled = [(q - 0.25) * 2.0 * math.atanh(math.sin(0.5 * math.pi / (1 + 2 * e)))
              for q, e in zip(qs, (3e-2, 1e-2, 3e-3, 1e-3))]
    assert max(scaled) <= 2.0 * min(scaled)


def test_measure_scaling_greiner_and_alpha2():
    res = measure_homogeneity_check(greiner(1, 1.0), 2.0, 1.0, 2.0, 10 ** 6,
                                    seed=17)
    assert res["expected"] == pytest.approx(16.0)   # Q = 4
    assert abs(res["ratio"].mean - 16.0) <= max(3.0 * res["ratio"].std_error,
                                                0.02 * 16.0)
    assert res["lambda_alpha_estimate"] > 0.0


def test_strip_quotient_matches_separable_oracle():
    # the 2-D integrand splits exactly into three separable terms; evaluating
    # them with 1-D adaptive quadrature is an independent route
    from hardylab.quadrature import integrate_adaptive
    from hardylab.sharpness import strip_cutoff
    from hardylab.profiles import smooth_bump

    theta, eps = 1.25, 5e-3
    s = theta - 0.5
    f = strip_cutoff(eps)
    eta = smooth_bump(0.0, 1.0)

    def P(x):
        return np.cos(x) ** s * f.value(x)

    def Pp(x):
        return -s * np.cos(x) ** (s - 1.0) * np.sin(x) * f.value(x) \
            + np.cos(x) ** s * f.derivative(x)

    kwx = dict(tol=0.0, rel_tol=1e-11, points=[k for k in f.knots if k > 0],
               singular_right=True)
    hi = f.support[1]
    vw = lambda x: np.cos(x) ** (-2.0 * (theta - 1.0))
    ax1 = integrate_adaptive(lambda x: np.sin(x) ** 2 * Pp(x) ** 2 * vw(x),
                             0.0, hi, **kwx).value
    ax2 = integrate_adaptive(lambda x: np.sin(x) * np.cos(x) * P(x) * Pp(x)
                             * vw(x), 0.0, hi, **kwx).value
    ax3 = integrate_adaptive(lambda x: np.cos(x) ** 2 * P(x) ** 2 * vw(x),
                             0.0, hi, **kwx).value
    axd = integrate_adaptive(lambda x: P(x) ** 2 * np.cos(x) ** (-2.0 * theta),
                             0.0, hi, **kwx).value

    def E(y):
        return np.exp(s * y) * eta.value(y)

    def Ep(y):
        return s * np.exp(s * y) * eta.value(y) + np.exp(s * y) * eta.derivative(y)

    wy = lambda y: np.exp(-2.0 * (theta - 1.0) * y)
    kwy = dict(tol=0.0, rel_tol=1e-11)
    by1 = integrate_adaptive(lambda y: E(y) ** 2 * wy(y), -1.0, 1.0, **kwy).value
    by2 = integrate_adaptive(lambda y: E(y) * Ep(y) * wy(y), -1.0, 1.0, **kwy).value
    by3 = integrate_adaptive(lambda y: Ep(y) ** 2 * wy(y), -1.0, 1.0, **kwy).value
    oracle = (ax1 * by1 - 2.0 * ax2 * by2 + ax3 * by3) / (axd * by1)
    assert strip_quotient(theta, eps) == pytest.approx(oracle, rel=1e-6)


def test_strip_quotient_theta_three_halves():
    # limiting constant ((2 theta - 1)/2)^2 = 1
    q = strip_quotient(1.5, 1e-2)
    assert q > 1.0
    assert q - 1.0 < strip_quotient(1.5, 3e-2) - 1.0


def test_strip_quotient_resolves_small_eps():
    # the x-panels grade down to the bridge width ~eps, so the two-resolution
    # check passes far below eps = 2^-10 and the quotient keeps falling
    qs = [strip_quotient(1.0, eps) for eps in (3e-5, 1e-6, 1e-9)]
    assert qs[0] > qs[1] > qs[2] > 0.25


def test_strip_parameter_validation():
    with pytest.raises(ParameterDomainError):
        strip_quotient(1.0, 0.3)


def test_nonfinite_model_knobs_rejected():
    for bad in (math.nan, math.inf):
        with pytest.raises(ParameterDomainError, match="^gamma must be"):
            grushin(1, 1, bad)
        with pytest.raises(ParameterDomainError, match="^gamma must be"):
            greiner(1, bad)
        with pytest.raises(ParameterDomainError, match="^theta must be"):
            strip_quotient(bad, 1e-3)
        with pytest.raises(ParameterDomainError, match="^alpha must be"):
            measure_homogeneity_check(euclidean(3), bad, 0.5, 1.0, 1000)
        with pytest.raises(ParameterDomainError, match="^need finite radii"):
            measure_homogeneity_check(euclidean(3), 1.0, 0.5, bad, 1000)


def test_vandermonde_domain_invariants():
    from hardylab.geometry import VandermondeDomain

    with pytest.raises(ParameterDomainError):
        VandermondeDomain(m=1, N=3, theta=1.0)
    with pytest.raises(ParameterDomainError):
        VandermondeDomain(m=4, N=3, theta=1.0)
    dom = VandermondeDomain(m=3, N=3, theta=1.0)
    # the pair-difference product is positive on the ordered sector
    rng = np.random.default_rng(14)
    pts = np.sort(rng.normal(size=(500, dom.m)), axis=1)
    distinct = np.min(np.diff(pts, axis=1), axis=1) > 1e-12
    assert np.all(vandermonde(pts[distinct]) > 0.0)


def test_direct_rayleigh_desk_scale_guard():
    from hardylab.geometry import UnsupportedModelError, direct_rayleigh
    from hardylab.scenarios import scenario_catalog as cat

    sc = cat("power", Q=5.0, p=2.0, theta=1.0)
    with pytest.raises(UnsupportedModelError):
        direct_rayleigh(euclidean(5), sc, smooth_bump(1.0, 0.5), 1000)


def test_vandermonde_polynomial_and_gradient():
    pts = np.array([[0.0, 1.0, 3.0]])
    # (x2-x1)(x3-x1)(x3-x2) = 1*3*2
    assert vandermonde(pts)[0] == pytest.approx(6.0)
    rng = np.random.default_rng(8)
    sample = rng.normal(size=(50, 3))
    grad = vandermonde_gradient(sample)
    h = 1e-6
    for j in range(3):
        shifted = sample.copy()
        shifted[:, j] += h
        fd = (vandermonde(shifted) - vandermonde(sample)) / h
        assert np.max(np.abs(fd - grad[:, j])) < 1e-3


def _separated_quotient(N: int, theta: float, eps: float) -> float:
    """1-D reduction of the sector quotient for u = phi(r) nu_S: the
    numerator carries the sphere-eigenvalue term (oracle for the MC path)."""
    from hardylab.quadrature import integrate_adaptive
    from hardylab.sharpness import plateau_cutoff

    g = plateau_cutoff(eps)
    kappa = N * (N - 1) / 2.0
    E = kappa * (kappa + N - 2.0)
    s = (N - 2.0 * theta) / 2.0
    kw = dict(points=list(g.knots[1:-1]))

    def phi(r):
        return r ** (-s) * g.value(r)

    def phip(r):
        return -s * r ** (-s - 1.0) * g.value(r) + r ** (-s) * g.derivative(r)

    m = N - 1.0 - 2.0 * (theta - 1.0)
    num = integrate_adaptive(
        lambda r: r ** m * (phip(r) ** 2 + E * phi(r) ** 2 / r ** 2),
        eps, 1.0 / eps, **kw).value
    den = integrate_adaptive(
        lambda r: r ** (N - 1.0 - 2.0 * theta) * phi(r) ** 2,
        eps, 1.0 / eps, **kw).value
    return num / den


def test_vandermonde_checks_n2():
    out = vandermonde_checks(2, 1.0, 200_000, seed=9)
    assert out["harmonicity_residual"] <= 1e-6
    assert out["expected_constant"] == pytest.approx(1.0)
    # sphere factor x2-x1 has degree 1: eigenvalue 1*(1+0) = 1
    assert out["expected_sphere_eigenvalue"] == pytest.approx(1.0)
    assert out["sphere_eigvalue_residual"] <= 1e-5
    oracle = _separated_quotient(2, 1.0, 1e-2)
    assert out["reduced_quotient"] == pytest.approx(oracle, rel=1e-8)
    assert abs(out["rayleigh_quotient"] - oracle) <= \
        5.0 * max(out["rayleigh_std_error"], 1e-4)
    assert out["rayleigh_quotient"] > 1.0


def test_vandermonde_checks_n3():
    out = vandermonde_checks(3, 1.0, 300_000, seed=10)
    assert out["harmonicity_residual"] <= 1e-6
    assert out["expected_sphere_eigenvalue"] == pytest.approx(12.0)
    assert out["sphere_eigvalue_residual"] <= 1e-5
    assert out["expected_constant"] == pytest.approx(12.25)
    assert abs(out["rayleigh_quotient"] - 12.25) <= 0.05 * 12.25
    oracle = _separated_quotient(3, 1.0, 1e-2)
    assert out["reduced_quotient"] == pytest.approx(oracle, rel=1e-8)
    assert abs(out["rayleigh_quotient"] - oracle) <= \
        5.0 * max(out["rayleigh_std_error"], 1e-4)


def test_vandermonde_hypothesis_validation():
    with pytest.raises(ParameterDomainError):
        vandermonde_checks(5, 1.0, 100)
    with pytest.raises(ParameterDomainError):
        vandermonde_checks(2, 2.5, 100)


def _sin_profile():
    return Profile(
        lambda r: np.sin(np.pi * np.clip(np.asarray(r, float), 0, 1))
        * (np.asarray(r, float) < 1.0),
        lambda r: np.pi * np.cos(np.pi * np.clip(np.asarray(r, float), 0, 1))
        * (np.asarray(r, float) < 1.0),
        (0.0, 1.0),
    )


def test_direct_rayleigh_matches_reduction():
    sc = scenario_catalog("power", Q=3.0, p=2.0, theta=1.0)
    phi = _sin_profile()
    red = reduce_radial_functional(sc, phi)
    for model, seed in ((euclidean(3), 31), (grushin(1, 1, 1.0), 32)):
        est = direct_rayleigh(model, sc, phi, 10 ** 6, seed=seed)
        assert abs(est.mean - red.quotient) <= 3.0 * est.std_error, model.kind


def test_direct_rayleigh_sign_changing_weight():
    sc = scenario_catalog("gaussian_b", p=2.0, theta=1.0, alpha=2.0, beta=2.0,
                          Q=3.0)
    phi = smooth_bump(0.45, 0.18)     # support below the W sign change
    red = reduce_radial_functional(sc, phi)
    assert red.denominator > 0
    est = direct_rayleigh(grushin(1, 1, 1.0), sc, phi, 10 ** 6, seed=77)
    assert abs(est.mean - red.quotient) <= 3.0 * est.std_error


def test_direct_rayleigh_scale_invariance():
    sc = scenario_catalog("power", Q=3.0, p=2.0, theta=1.0)
    phi = _sin_profile()
    est1 = direct_rayleigh(euclidean(3), sc, phi, 200_000, seed=5)
    est5 = direct_rayleigh(euclidean(3), sc, phi.scaled(5.0), 200_000, seed=5)
    assert est5.mean == pytest.approx(est1.mean, rel=1e-12)


def test_direct_rayleigh_q_mismatch_rejected():
    sc = scenario_catalog("power", Q=5.0, p=2.0, theta=1.0)
    with pytest.raises(ParameterDomainError, match="does not match"):
        direct_rayleigh(euclidean(3), sc, smooth_bump(1.0, 0.5), 1000)
