import math
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from hardylab import besselpair
from hardylab.besselpair import (ODEFailure, improved_weight_auxiliary_pair,
                                 momentum_from_profile, solve_flux,
                                 verify_bessel_pair)
from hardylab.cli import run
from hardylab.profiles import Profile
from hardylab.scenarios import (UnsupportedScenarioError,
                                closed_form_maximizer, default_catalog,
                                scenario_catalog)
from hardylab.spectral import AnnulusProblem, eigenvalue


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


def test_interval_too_short_to_split_is_a_parameter_error(capsys):
    # [1, 1 + 2u] holds no 64 distinct geometric intervals
    sc = scenario_catalog("gaussian_a", p=2.0, alpha=2.0, beta=2.0, Q=3.0)
    with pytest.raises(ValueError, match="too short to split into 64"):
        verify_bessel_pair(sc, (1.0, math.nextafter(1.0, 2.0)))
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
    dop853 = besselpair._dop853

    def both(A, B, p, drift, t0, y0, t_bound, rtol, atol):
        ours = dop853(A, B, p, drift, t0, y0, t_bound, rtol, atol)
        pairs.append((ours, solve_ivp(_scalar_rhs(A, B, p, drift),
                                      (t0, t_bound), y0, method="DOP853",
                                      rtol=rtol, atol=atol, dense_output=True)))
        return ours

    monkeypatch.setattr(besselpair, "_dop853", both)
    return pairs


def test_float_stepper_matches_scipy_dop853(monkeypatch):
    # the two differ only in the rounding of the stage sums (BLAS orders them
    # its own way); for p != 2 that can tip the accept/reject decision of a
    # step across a turning point of phi, where the flux is only
    # C^{1,1/(p-1)}, and part single solves by a few percent of their steps
    # and ~1e2 rtol in the state. No solve here takes such a step: the
    # annulus shot's rise ends at the turning time that the period integral
    # gives, and its fall restarts there, so the states agree to ~1e-11.
    # `_dop853` builds a step's dense piece only when it is read, so its
    # nfev counts fewer pieces than scipy's: compare accepted steps
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


def test_float_stepper_dense_output_hits_step_ends(monkeypatch):
    pairs = _record_solves(monkeypatch)
    eigenvalue(AnnulusProblem(Q=5.0, p=4.0, theta=1.0, a=1.0, b=2.0))
    eigenvalue(AnnulusProblem(Q=3.0, p=3.0, theta=2.0, a=1.0, b=4.0))
    solve_flux(1.0, 2.25, 2.0, (10.0, 1.0), (1.0, -1.5), 1e-10,
               1e-12)                                         # backward
    assert len(pairs) == 5
    for sol, _ in pairs:
        # at a step end sol picks the step that ends there, as OdeSolution
        ends = sol.sol(sol.t)
        assert np.array_equal(ends[:, 0], sol.y[:, 0])
        for k in range(len(sol.t) - 1):
            y0, y1 = sol.y[:, k], sol.y[:, k + 1]
            F = sol._piece(k)
            assert besselpair._horner(F, 0.0, tuple(y0)) == tuple(y0)
            end = np.array(besselpair._horner(F, 1.0, tuple(y0)))
            assert np.array_equal(ends[:, k + 1], end)
            assert np.all(np.abs(end - y1) <= 4e-16 * (np.abs(y0) + np.abs(y1)))
            assert sol.sol(sol.t[k]).shape == (2,)


def test_dense_pieces_are_built_once_when_read():
    # phi'' = -2.25 phi: p = 2, A = 1, B = 2.25, no drift
    sol = solve_flux(1.0, 2.25, 2.0, (1.0, 10.0), (1.0, -1.5), 1e-10, 1e-12)
    steps = len(sol.t) - 1
    assert steps > 5 and (sol.nfev - 2) % 12 == 0    # no piece built yet
    solved = sol.nfev
    r = np.linspace(1.0, 10.0, 10)
    first = sol.sol(r)
    read = np.unique(np.clip(np.searchsorted(sol.t, r) - 1, 0, None))
    assert sol.nfev == solved + 3 * len(read) < solved + 3 * steps
    assert np.array_equal(sol.sol(r[::-1])[:, ::-1], first)
    sol.sol(sol.t)
    assert sol.nfev == solved + 3 * steps


def test_zero_span_solve_is_scipys_constant_solve():
    def rhs(r, y):
        return y[1], -y[0]

    ref = solve_ivp(rhs, (1.0, 1.0), (2.0, 3.0), method="DOP853",
                    dense_output=True)
    # phi' = m, m' = -phi: solve_flux's RHS at p = 2, A = B = 1, no drift
    sol = besselpair._dop853(1.0, 1.0, 2.0, 0.0, 1.0, (2.0, 3.0), 1.0, 1e-10,
                             1e-12)
    assert np.array_equal(sol.t, ref.t) and np.array_equal(sol.y, ref.y)
    assert sol.nfev == ref.nfev == 1
    r = np.array([0.5, 1.0, 2.0])
    assert np.array_equal(sol.sol(r), ref.sol(r))
    assert np.array_equal(sol.sol(1.0), ref.sol(1.0))


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
        assert besselpair._slope(*y, 0.0, (), *args) == rhs(0.0, y)
        K = [f]
        y_new = add_stages(K, y, h, besselpair._STAGES, rhs)
        flat, *rest = besselpair._step(*y, h, f, *args)
        assert flat == tuple(x for k in K for x in k)
        assert rest == [y_new, combine(K, besselpair._E5),
                        combine(K, besselpair._E3)]
        add_stages(K, y, h, besselpair._EXTRA, rhs)
        assert besselpair._dense(*y, h, flat, *args) == tuple(
            tuple(h * x for x in combine(K, row)) for row in besselpair._D)


def test_dop853_tableau_is_scipys_bitwise():
    from scipy.integrate._ivp import dop853_coefficients as ref

    A, C = np.zeros((16, 16)), np.zeros(16)
    for i, (c, row) in enumerate(besselpair._STAGES + besselpair._EXTRA, 1):
        C[i] = c
        A[i, list(row)] = list(row.values())
    E = np.zeros((2, 13))
    D = np.zeros((4, 16))
    for out, rows in ((E, (besselpair._E3, besselpair._E5)),
                      (D, besselpair._D)):
        for i, row in enumerate(rows):
            out[i, list(row)] = list(row.values())
    B = np.zeros(12)
    B[list(besselpair._STAGES[-1][1])] = list(besselpair._STAGES[-1][1].values())
    for ours, theirs in ((A, ref.A), (C, ref.C), (B, ref.B), (E[0], ref.E3),
                         (E[1], ref.E5), (D, ref.D)):
        assert ours.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("A, y0, fault", [
    pytest.param(1.0, (1e200, 0.0), "float overflow",       # |phi|^(p-2) = 1e400
                 id="overflow"),
    pytest.param(0.0, (1.0, 0.0), "float division by zero",  # m / A, A = 0
                 id="zero_division"),
])
def test_float_overflow_in_the_rhs_is_an_ode_failure(A, y0, fault):
    # the message names the fault, not the errno tuple of an OverflowError
    with pytest.raises(ODEFailure, match=f"^ODE integration failed: {fault} "
                       "in the right-hand side$"):
        solve_flux(A, 1.0, 4.0, (0.0, 1.0), y0, 1e-10, 1e-12)


def test_stiff_solve_ends_at_the_rhs_budget():
    # B = 1e16 makes phi'' = -1e16 phi turn 1.6e7 times on the span: without
    # a budget the solve would take ~1e8 steps
    start = time.perf_counter()
    with pytest.raises(ODEFailure, match="more than 1000000 RHS evaluations"):
        solve_flux(1.0, 1e16, 2.0, (0.0, 1.0), (1.0, 0.0), 1e-10, 1e-12)
    assert time.perf_counter() - start < 60.0


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
    assert "FAIL: ODE integration failed" in err and "Traceback" not in err
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


def test_ode_scale_invariance():
    # p = 2 with a drift: the solve is linear, so c phi_0 gives c phi
    p, t = 2.0, np.linspace(0.0, 4.0, 600)
    ref = solve_flux(1.0, 2.25, p, (0.0, 4.0), (1.0, -1.5), 1e-10, 1e-12,
                     drift=0.5).sol(t)[0]
    for c in (2.0, -1.0, 10.0):
        y0 = (c * 1.0, abs(c) ** (p - 2.0) * c * -1.5)
        phi = solve_flux(1.0, 2.25, p, (0.0, 4.0), y0, 1e-10, 1e-12,
                         drift=0.5).sol(t)[0]
        scale = np.max(np.abs(c * ref))
        assert np.max(np.abs(phi - c * ref)) <= 1e-8 * scale


def test_ode_scale_invariance_p3():
    t = np.linspace(0.0, 3.0, 600)
    ref = solve_flux(1.3, 0.7, 3.0, (0.0, 3.0), (1.0, -0.8), 1e-10, 1e-12,
                     drift=-0.4).sol(t)[0]
    c = 2.0
    # momentum scales like |c|^(p-2) c = c^2 for p=3, c>0
    sol = solve_flux(1.3, 0.7, 3.0, (0.0, 3.0), (c, c ** 2.0 * -0.8), 1e-10,
                     1e-12, drift=-0.4).sol(t)[0]
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

    sc = scenario_catalog("power", Q=5.0, p=2.0, theta=1.0)
    sc = replace(sc, pair=replace(sc.pair, V=V))
    with pytest.raises(ODEFailure, match=r"^V r\^mu reads 0\.0 from r = 1 on "
                       "the integration path"):
        verify_bessel_pair(sc, (0.5, 2.0))
