import json
import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from hardylab import besselpair
from hardylab.besselpair import (ODEFailure, improved_weight_auxiliary_pair,
                                 momentum_from_profile, verify_bessel_pair)
from hardylab.cli import run
from hardylab.profiles import Profile
from hardylab.scenarios import (UnsupportedScenarioError,
                                closed_form_maximizer, default_catalog,
                                scenario_catalog)


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
        # recessive closed forms that a forward shot could not follow, a
        # span where gaussian_b's V = exp(-r^2/2) falls to 1e-196, and a
        # log_radial interval up to 1e-3 from its singular end
        ("gaussian_b", dict(p=3.0), (0.5, 8.0)),
        ("improved_weight", dict(Q=5.0, p=3.0), (0.1, 20.0)),
        ("gaussian_b", {}, (0.5, 30.0)),
        ("log_radial", dict(p=3.0), (1e-4, 0.999)),
    ]
    for name, kwargs, interval in cases:
        sc = scenario_catalog(name, **kwargs)
        cert = verify_bessel_pair(sc, interval)
        assert cert.failure is None, (name, interval, cert)
        assert cert.max_ode_residual <= 1e-13, (name, cert)
        assert cert.max_closed_form_error <= 1e-13, (name, cert)


# name: the CLI's default (r0, r1), then max_ode_residual,
# max_closed_form_error, max_flux_over_budget, max_phi_over_budget, min_phi
# and is_positive
_DEFAULT_CERTIFICATES = {
    "power": ["0.1", "1.0", "2.535666244012146e-16", "1.6501147518252718e-16",
              "0.08288529304319989", "0.05393858323544026",
              "1.0", "True"],
    "log_radial": ["0.1", "0.9", "2.7362788491635694e-16",
                   "2.3859650337657505e-16", "0.25868163007476525",
                   "0.10957753204401793",
                   "0.6590102289822608", "True"],
    "log_cylindrical": ["0.1", "0.9", "3.2879512217856924e-16",
                        "2.3859650337657505e-16", "0.34841401123891136",
                        "0.10957753204401793",
                        "0.6590102289822608", "True"],
    "gaussian_a": ["0.1", "1.0", "2.859601309279583e-16",
                   "1.0346625754128516e-16", "0.057803528737670515",
                   "0.22821446973528942",
                   "1.002503127605795", "True"],
    "gaussian_b": ["0.1", "1.0", "3.1179419860228226e-16",
                   "1.6501147518252718e-16", "0.11951754803209039",
                   "0.05393858323544026",
                   "1.0", "True"],
    "annulus": ["1.1", "2.4464536456131407", "3.2573954451615178e-15",
                "3.4329624487094927e-16", "0.13619048702816486",
                "0.20737226872938147",
                "0.2077781229974251", "True"],
    "cylindrical": ["0.1", "1.0", "1.57803836874511e-16",
                    "9.452860416959159e-17", "0.11851262248248606",
                    "0.07099214443471298",
                    "1.0", "True"],
    "strip": ["0.1", "1.0", "9.615840768975696e-17", "9.776926880144702e-17",
              "0.07221614692496665", "0.07342592343346344",
              "0.31622776601683794", "True"],
    "antisymmetric": ["0.1", "1.0", "1.6251439916927252e-16",
                      "9.452860416959159e-17", "0.1220503127058439",
                      "0.07099214443471298",
                      "1.0", "True"],
    "improved_weight": ["0.1", "1.0", "2.3901829843188415e-16",
                        "8.680873645668029e-17", "0.20366123996687416",
                        "0.0895641492766119",
                        "0.36787944117144233", "True"],
}


def test_default_interval_certificates_are_pinned(capsys):
    # every catalog scenario through `bessel` with no --r0/--r1: the default
    # interval, the certificate's residuals and budgets and its smallest
    # phi on the probe grid, bit for bit
    for sc in default_catalog():
        argv = ["bessel", "--scenario", sc.name, "--format", "json"]
        for key, value in sc.params.items():
            argv += [f"--{key}", repr(value)]
        assert run(argv) == 0, argv
        doc = json.loads(capsys.readouterr().out)
        summary = doc["summary"]
        assert [repr(doc["rows"][0]["r"]), repr(doc["rows"][-1]["r"])] + [
            repr(summary[k]) for k in (
                "max_ode_residual", "max_closed_form_error",
                "max_flux_over_budget", "max_phi_over_budget", "min_phi",
                "is_positive")] == \
            _DEFAULT_CERTIFICATES[sc.name], sc.name


def test_interval_too_short_to_split_is_a_parameter_error(capsys):
    # [1, 1 + 2u] holds no 64 distinct geometric intervals
    sc = scenario_catalog("gaussian_a", p=2.0, alpha=2.0, beta=2.0, Q=3.0)
    with pytest.raises(ValueError, match="too short to split into 64"):
        verify_bessel_pair(sc, (1.0, math.nextafter(1.0, 2.0)))
    # an infinite r1 too, with no numpy warning on the way
    with pytest.raises(ValueError, match="too short to split into 64"):
        verify_bessel_pair(sc, (1.0, math.inf))
    assert run(["bessel", "--scenario", "gaussian_a", "--r0", "1", "--r1",
                "1.0000000000000002"]) == 2
    assert capsys.readouterr().err.startswith("parameter error: interval ")


def test_gaussian_a_certificate_on_a_long_interval(tmp_path):
    # phi = exp(r^2/4) grows to 5e97 by r = 30: each interval's budget
    # scales with its own terms, not with max |phi|
    sc = scenario_catalog("gaussian_a", p=2.0, alpha=2.0, beta=2.0, Q=3.0)
    cert = verify_bessel_pair(sc, (0.5, 30.0))
    assert cert.is_positive, cert
    assert cert.max_ode_residual <= 1e-6, cert
    assert cert.max_closed_form_error <= 1e-6, cert
    assert run(["bessel", "--scenario", "gaussian_a", "--r0", "0.5", "--r1",
                "30", "--out", str(tmp_path / "g.csv")]) == 0


def test_sign_changing_solution_is_not_certified():
    # four times the power pair's lam makes the solution from the closed
    # form's data oscillate: r^-1.5 cos(2.6 ln r + c) changes sign on
    # (0.1, 10). The closed form r^-1.5 stays positive, but it no longer
    # solves the ODE, so the flux identity fails on every interval
    sc = scenario_catalog("power", Q=5.0, p=2.0, theta=1.0)
    sc = replace(sc, pair=replace(sc.pair, lam=4.0 * sc.pair.lam))
    cert = verify_bessel_pair(sc, (0.1, 10.0))
    assert cert.is_positive and cert.min_phi > 0.0
    assert cert.max_phi_over_budget <= besselpair._FLUX_K
    assert cert.max_flux_over_budget > 1e10 * besselpair._FLUX_K
    assert cert.failure.startswith("Bessel-pair certificate")


def test_certificate_solution_and_residual_match_direct_evaluation():
    # the certificate's solution is the closed form and its flux, bit for
    # bit, and its residual is the relative flux residual of the interval
    # holding each r: with lam off by 1e-6 that residual is the lam error's
    # share, which scipy's quad recomputes to 1e-6
    cases = [("power", dict(Q=5.0, p=2.0, theta=1.0), (1.0, 10.0)),
             ("annulus", dict(Q=3.0, p=2.0, theta=1.0, a=1.0, b=math.e),
              (1.1, 2.5)),
             ("antisymmetric", dict(N=5, theta=2.0), (0.1, 10.0))]
    for name, kwargs, (r0, r1) in cases:
        sc = scenario_catalog(name, **kwargs)
        sc = replace(sc, pair=replace(sc.pair, lam=sc.pair.lam * (1 + 1e-6)))
        p, mu = sc.exponents.p, sc.exponents.measure_exponent
        pair, phi = sc.pair, closed_form_maximizer(sc)
        z = sc.numerator_zero_order or (lambda r: 0.0 * r)
        cert = verify_bessel_pair(sc, (r0, r1))
        r = np.linspace(r0, r1, 200)
        value, flux = cert.solution(r)
        assert value.tobytes() == phi.value(r).tobytes(), name
        assert flux.tobytes() == momentum_from_profile(
            pair.V, mu, p, phi, r).tobytes(), name

        def source(x):
            x = np.array([x])
            v = phi.value(x)
            return float(((pair.lam * pair.W(x) - z(x)) * x ** mu
                          * np.abs(v) ** (p - 2.0) * v)[0])

        edges = np.geomspace(r0, r1, besselpair._INTERVALS + 1)
        for i in (0, 21, 63):
            a, b = edges[i], edges[i + 1]
            integral = quad(source, a, b, epsabs=0.0, epsrel=1e-12)[0]
            m = momentum_from_profile(pair.V, mu, p, phi, np.array([a, b]))
            direct = abs(m[1] - m[0] + integral) / (
                abs(m[0]) + abs(m[1]) + abs(integral))
            assert cert.residual(np.array([0.5 * (a + b)]))[0] == \
                pytest.approx(direct, rel=1e-6), (name, i)
        assert cert.max_ode_residual == np.max(cert.residual(r))


# every catalog closed form, over the intervals the benchmark certifies
CATALOG_INTERVALS = {
    "power": (0.1, 10.0), "log_radial": (0.01, 0.9),
    "log_cylindrical": (0.01, 0.9), "gaussian_a": (0.5, 3.0),
    "gaussian_b": (0.2, 4.0), "annulus": (1.1, 2.5), "cylindrical": (0.1, 5.0),
    "strip": (0.1, 5.0), "antisymmetric": (0.1, 10.0),
    "improved_weight": (0.1, 5.0),
}


def _lam_times(factor):
    """A scenario -> its copy with lam scaled by factor; for improved_weight
    the certified auxiliary pair's lam, through a patched builder."""
    def perturb(sc, monkeypatch):
        if sc.name != "improved_weight":
            return replace(sc, pair=replace(sc.pair, lam=sc.pair.lam * factor))

        def auxiliary(Q, p):
            pair, phi = improved_weight_auxiliary_pair(Q, p)
            return replace(pair, lam=pair.lam * factor), phi

        monkeypatch.setattr(besselpair, "improved_weight_auxiliary_pair",
                            auxiliary)
        return sc

    return perturb


def _slope_times(factor):
    def perturb(sc, monkeypatch):
        phi = closed_form_maximizer(sc)
        return replace(sc, maximizer=Profile(
            phi.value, lambda r: factor * phi.derivative(r), phi.support))

    return perturb


def _gaussian_a_corr_times(factor):
    # W = (r^(p(alpha-1)) - corr r^(alpha(p-1)-p)) exp(-r^alpha/beta)
    def perturb(sc, monkeypatch):
        p, Q = sc.exponents.p, sc.exponents.Q
        alpha, beta = sc.extra["alpha"], sc.extra["beta"]
        corr = factor * (p * beta / alpha) * (alpha * (p - 1.0) + Q - p)

        def W(r):
            return (r ** (p * (alpha - 1.0)) - corr
                    * r ** (alpha * (p - 1.0) - p)) * np.exp(-r ** alpha / beta)

        return replace(sc, pair=replace(sc.pair, W=W))

    return perturb


def _sphere_eigenvalue_times(factor):
    def perturb(sc, monkeypatch):
        z = sc.numerator_zero_order
        return replace(sc, numerator_zero_order=lambda r: factor * z(r))

    return perturb


_CLOSED_FORMS = [sc.name for sc in default_catalog()]
_SENSITIVITY = (
    [(name, f"lam*(1{s}1e-10)", _lam_times(1.0 + float(f"{s}1e-10")))
     for name in _CLOSED_FORMS for s in "+-"]
    + [(name, "phi'*(1+1e-10)", _slope_times(1.0 + 1e-10))
       for name in _CLOSED_FORMS if name != "improved_weight"]
    + [("gaussian_a", "corr*(1+1e-9)", _gaussian_a_corr_times(1.0 + 1e-9)),
       ("antisymmetric", "sphere_eigenvalue*(1+1e-9)",
        _sphere_eigenvalue_times(1.0 + 1e-9))])


@pytest.mark.parametrize("name, change, perturb", _SENSITIVITY,
                         ids=[f"{n}-{c}" for n, c, _ in _SENSITIVITY])
def test_certificate_fails_a_small_error_in_what_it_certifies(
        name, change, perturb, monkeypatch):
    # the bessel cells of the sensitivity matrix: each catalog closed form
    # passes as built and fails with one of its ingredients off by 1e-10
    # (1e-9 for a correction coefficient); improved_weight certifies its
    # auxiliary exp(-r) pair, whose lam is the one perturbed
    (sc,) = [sc for sc in default_catalog() if sc.name == name]
    interval = CATALOG_INTERVALS[name]
    assert verify_bessel_pair(sc, interval).failure is None
    cert = verify_bessel_pair(perturb(sc, monkeypatch), interval)
    assert cert.failure is not None, (change, cert)


def test_float_overflow_exits_1_without_traceback(tmp_path):
    # r^(Q-1) overflows a float long before r = 1e300; a fresh process, so
    # that a numpy warning would reach its stderr
    proc = subprocess.run(
        [sys.executable, "-m", "hardylab.cli", "bessel", "--scenario",
         "power", "--Q", "5", "--p", "2", "--theta", "1", "--r0", "1",
         "--r1", "1e300", "--out", str(tmp_path / "b.csv")],
        capture_output=True, text=True, timeout=120)
    err = proc.stderr
    assert proc.returncode == 1
    assert "FAIL: coefficient probe failed" in err and "Traceback" not in err
    assert "RuntimeWarning" not in err
    assert [x for x in err.splitlines() if x.startswith("FAIL: ")] == \
        err.splitlines()[-1:]


def test_improved_weight_auxiliary_equation():
    # exp(-r) against V~ = r^-(Q-p), W~ = r^-(Q-p)(1-r)/r, lam = p-1: the
    # flux m = -r^(p-1) e^(-(p-1) r) is stationary at r = 1, where W~
    # changes sign, and the interval holding r = 1 still holds to rounding
    for p in (2.0, 3.0):
        cert = verify_bessel_pair(
            scenario_catalog("improved_weight", Q=5.0, p=p), (0.1, 5.0))
        assert cert.failure is None, cert
        assert cert.residual(np.array([1.0]))[0] <= 1e-14
        pair, phi = improved_weight_auxiliary_pair(5.0, p)
        r = np.geomspace(0.1, 5.0, 50)
        assert np.allclose(momentum_from_profile(pair.V, 4.0, p, phi, r),
                           -r ** (p - 1.0) * np.exp(-(p - 1.0) * r),
                           rtol=1e-14, atol=0.0)


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

    sc = scenario_catalog("power", Q=5.0, p=2.0, theta=1.0)
    sc = replace(sc, pair=replace(sc.pair, V=V))
    with pytest.raises(ODEFailure, match=r"^V r\^mu reads 0\.0 from r = 1 on "
                       "the integration path"):
        verify_bessel_pair(sc, (0.5, 2.0))
    # V r^mu <= 0 at r0 itself is named there
    with pytest.raises(ODEFailure, match=r"^V r\^mu reads 0\.0 from r = 1 on "
                       r"the integration path \(V vanishes there\)$"):
        verify_bessel_pair(sc, (1.0, 2.0))


def test_coefficient_dip_between_coarse_probe_points_is_detected():
    # V r^mu <= 0 on [1.9685, 1.9875], inside the last certificate interval
    # (1.9571, 2): no point of a 64-point geometric probe of [0.5, 2] falls
    # there, but 7 points of the certificate's own 1,025-point grid do, and
    # bisection from the last positive one names the dip's left end
    c, w = 1.978, 0.019
    sc = scenario_catalog("power", Q=5.0, p=2.0, theta=1.0)
    V0 = sc.pair.V

    def V(r):
        r = np.asarray(r, dtype=float)
        return V0(r) * np.where(np.abs(r - c) < w,
                                2.0 * np.abs(r - c) / w - 1.0, 1.0)

    assert np.all(V(np.geomspace(0.5, 2.0, 64)) > 0.0)
    assert np.count_nonzero(V(np.geomspace(0.5, 2.0, 1025)) <= 0.0) == 7
    sc = replace(sc, pair=replace(sc.pair, V=V))
    with pytest.raises(ODEFailure, match=r"^V r\^mu reads -[0-9.e-]+ from "
                       r"r = 1\.9685 on the integration path$") as failed:
        verify_bessel_pair(sc, (0.5, 2.0))
    r = float(str(failed.value).split("from r = ")[1].split()[0])
    assert c - w / 2 <= r <= c + w / 2
