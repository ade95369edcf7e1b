import math

import numpy as np
import pytest

from hardylab.besselpair import (DivergenceError, SingularCoefficientError,
                                 improved_weight_auxiliary_pair,
                                 integrate_bessel_ode, momentum_from_profile,
                                 ode_residuals, verify_bessel_pair)
from hardylab.scenarios import (Exponents, RadialWeightPair,
                                UnsupportedScenarioError,
                                closed_form_maximizer, scenario_catalog)


def test_power_trajectory_matches_closed_form():
    sc = scenario_catalog("power", Q=5.0, p=2.0, theta=1.0)
    # phi(1)=1, phi'(1)=-3/2, V r^4 flux
    dense = integrate_bessel_ode(sc.pair, sc.exponents, 1.0, (1.0, -1.5), 10.0)
    r = np.linspace(1.0, 10.0, 600)
    ref = r ** -1.5
    assert np.max(np.abs(dense(r)[0] - ref) / ref) <= 1e-6


def test_log_trajectory_matches_closed_form():
    sc = scenario_catalog("log_radial", p=2.0, theta=0.0, R=1.0)
    phi = closed_form_maximizer(sc)
    r0 = 0.01
    y0 = (float(phi.value(np.array([r0]))[0]),
          momentum_from_profile(sc.pair.V, sc.exponents.measure_exponent,
                                2.0, phi, r0))
    dense = integrate_bessel_ode(sc.pair, sc.exponents, r0, y0, 0.9)
    r = np.linspace(r0, 0.9, 600)
    ref = np.log(1.0 / r) ** -0.5
    assert np.max(np.abs(dense(r)[0] - ref) / ref) <= 1e-6


def test_gaussian_a_trajectory_matches_closed_form():
    sc = scenario_catalog("gaussian_a", p=2.0, alpha=2.0, beta=2.0, Q=3.0)
    phi = closed_form_maximizer(sc)
    y0 = (float(phi.value(np.array([0.5]))[0]),
          momentum_from_profile(sc.pair.V, sc.exponents.measure_exponent,
                                2.0, phi, 0.5))
    dense = integrate_bessel_ode(sc.pair, sc.exponents, 0.5, y0, 3.0)
    r = np.linspace(0.5, 3.0, 600)
    ref = np.exp(r ** 2 / 4.0)
    assert np.max(np.abs(dense(r)[0] - ref) / ref) <= 1e-6
    assert float(phi.value(np.array([0.5]))[0]) == pytest.approx(math.exp(1 / 16))


def test_certificates_for_catalog_closed_forms():
    cases = [
        ("power", dict(Q=5.0, p=2.0, theta=1.0), (0.1, 10.0)),
        ("log_radial", dict(p=2.0, theta=0.0, R=1.0), (0.01, 0.9)),
        ("gaussian_a", dict(p=2.0, alpha=2.0, beta=2.0, Q=3.0), (0.5, 3.0)),
        ("gaussian_b", dict(p=2.0, theta=1.0, alpha=2.0, beta=2.0, Q=5.0),
         (0.2, 4.0)),
        ("cylindrical", dict(m=3, p=2.0, theta=1.0), (0.1, 5.0)),
        ("power", dict(Q=4.0, p=3.0, theta=1.0), (0.2, 5.0)),
        ("antisymmetric", dict(N=3, theta=1.0), (0.1, 10.0)),
        ("antisymmetric", dict(N=5, theta=2.0), (0.1, 10.0)),
    ]
    for name, kwargs, interval in cases:
        sc = scenario_catalog(name, **kwargs)
        cert = verify_bessel_pair(sc, interval)
        assert cert.is_positive, (name, cert)
        assert cert.max_ode_residual <= 1e-6, (name, cert)
        assert cert.max_closed_form_error <= 1e-6, (name, cert)


def test_certificate_solution_and_residual_match_direct_evaluation():
    # the certificate's dense solve and vectorized residual give the same bits
    # as a fresh solve from the same data and a point-by-point residual loop
    cases = [("power", dict(Q=5.0, p=2.0, theta=1.0), (1.0, 10.0)),
             ("annulus", dict(Q=3.0, p=2.0, theta=1.0, a=1.0, b=math.e),
              (1.1, 2.5)),
             ("improved_weight", dict(Q=5.0, p=3.0), (0.1, 5.0))]
    for name, kwargs, (r0, r1) in cases:
        sc = scenario_catalog(name, **kwargs)
        exps = sc.exponents
        mu = exps.measure_exponent
        if name == "improved_weight":
            pair, phi = improved_weight_auxiliary_pair(exps.Q, exps.p)
        else:
            pair, phi = sc.pair, closed_form_maximizer(sc)
        cert = verify_bessel_pair(sc, (r0, r1))
        at_r0 = np.array([r0])
        y0 = (float(phi.value(at_r0)[0]), float(
            momentum_from_profile(pair.V, mu, exps.p, phi, at_r0)[0]))
        ref = integrate_bessel_ode(pair, exps, r0, y0, r1)
        r = np.linspace(r0, r1, 200)
        assert np.array_equal(cert.solution(r), ref(r)), name
        loop = [float(ode_residuals(pair.V, pair.W, pair.lam, mu, exps.p, phi,
                                    np.array([x]))[0]) for x in r]
        assert cert.residual(r).tolist() == loop, name


def test_improved_weight_auxiliary_equation():
    # exp(-r) against V~ = r^-(Q-p), W~ = r^-(Q-p)(1-r)/r, lam = p-1
    sc = scenario_catalog("improved_weight", Q=5.0, p=2.0)
    cert = verify_bessel_pair(sc, (0.1, 5.0))
    assert cert.is_positive
    assert cert.max_ode_residual <= 1e-6
    assert cert.max_closed_form_error <= 1e-6
    # both ODE terms vanish at r = 1, where the residual needs a scale floor
    pair, phi = improved_weight_auxiliary_pair(5.0, 3.0)
    resid = ode_residuals(pair.V, pair.W, pair.lam, 4.0, 3.0, phi,
                          np.append(np.geomspace(0.1, 5.0, 500), 1.0))
    assert np.max(resid) <= 1e-6


def test_ode_scale_invariance():
    sc = scenario_catalog("power", Q=5.0, p=2.0, theta=1.0)
    r = np.linspace(1.0, 5.0, 600)
    ref = integrate_bessel_ode(sc.pair, sc.exponents, 1.0, (1.0, -1.5), 5.0)(r)[0]
    p = sc.exponents.p
    for c in (2.0, -1.0, 10.0):
        y0 = (c * 1.0, abs(c) ** (p - 2.0) * c * -1.5)
        phi = integrate_bessel_ode(sc.pair, sc.exponents, 1.0, y0, 5.0)(r)[0]
        scale = np.max(np.abs(c * ref))
        assert np.max(np.abs(phi - c * ref)) <= 1e-8 * scale


def test_ode_scale_invariance_p3():
    sc = scenario_catalog("power", Q=4.0, p=3.0, theta=1.0)
    phi = closed_form_maximizer(sc)
    m0 = momentum_from_profile(sc.pair.V, sc.exponents.measure_exponent, 3.0,
                               phi, 1.0)
    phi0 = float(phi.value(np.array([1.0]))[0])
    r = np.linspace(1.0, 4.0, 600)
    ref = integrate_bessel_ode(sc.pair, sc.exponents, 1.0, (phi0, m0), 4.0)(r)[0]
    c = 2.0
    # momentum scales like |c|^(p-2) c = c^2 for p=3, c>0
    sol = integrate_bessel_ode(sc.pair, sc.exponents, 1.0,
                               (c * phi0, c ** 2.0 * m0), 4.0)(r)[0]
    assert np.max(np.abs(sol - c * ref)) <= 1e-8 * np.max(np.abs(c * ref))


def test_maximizer_closed_forms():
    sc = scenario_catalog("power", Q=5.0, p=2.0, theta=1.0)
    phi = closed_form_maximizer(sc)
    assert float(phi.value(np.array([2.0]))[0]) == pytest.approx(2.0 ** -1.5)
    assert float(phi.derivative(np.array([1.0]))[0]) == pytest.approx(-1.5)
    ann = scenario_catalog("annulus", Q=3.0, p=2.0, theta=1.0, a=1.0, b=math.e)
    phi1 = closed_form_maximizer(ann)
    r = np.linspace(1.0, math.e, 100)
    ref = r ** -0.5 * np.sin(math.pi * np.log(r))
    assert np.max(np.abs(phi1.value(r) - ref)) <= 1e-13
    gb = scenario_catalog("gaussian_b", p=2.0, theta=2.0, alpha=2.0, beta=2.0,
                          Q=5.0)
    phib = closed_form_maximizer(gb)
    assert float(phib.value(np.array([4.0]))[0]) == pytest.approx(4.0 ** -0.5)


def test_maximizer_unsupported():
    sc = scenario_catalog("improved_weight", Q=5.0, p=2.0)
    with pytest.raises(UnsupportedScenarioError):
        closed_form_maximizer(sc)


def test_truncated_maximizer_approaches_sharp_constant_from_above():
    from hardylab.sharpness import sweep_quotient

    for name, kwargs in (("power", dict(Q=5.0, p=2.0, theta=1.0)),
                         ("log_radial", dict(p=2.0, theta=0.0, R=1.0)),
                         ("gaussian_b", dict(p=2.0, theta=1.0, alpha=2.0,
                                             beta=2.0, Q=5.0))):
        sc = scenario_catalog(name, **kwargs)
        rows = sweep_quotient(sc, [2e-2, 4e-3, 8e-4])
        deficits = [r.deficit for r in rows]
        assert all(d > 0 for d in deficits)
        assert deficits[0] > deficits[1] > deficits[2]


def test_singular_coefficient_detected():
    def V(r):
        return np.maximum(1.0 - np.asarray(r, dtype=float), 0.0)  # hits 0 at r=1

    def W(r):
        return np.ones_like(np.asarray(r, dtype=float))

    pair = RadialWeightPair(V, W, 1.0, (0.0, math.inf), W_nonnegative=True)
    sc = scenario_catalog("power", Q=5.0, p=2.0, theta=1.0)
    with pytest.raises(SingularCoefficientError):
        integrate_bessel_ode(pair, sc.exponents, 0.5, (1.0, 0.1), 2.0)


def test_divergence_detected():
    def V(r):
        return np.ones_like(np.asarray(r, dtype=float))

    def W(r):
        return -np.ones_like(np.asarray(r, dtype=float))

    pair = RadialWeightPair(V, W, 200.0, (0.0, math.inf), W_nonnegative=False)
    exps = Exponents(p=2.0, theta=1.0, Q=2.0)
    with pytest.raises(DivergenceError):
        integrate_bessel_ode(pair, exps, 1.0, (1.0, 1.0), 30.0)
