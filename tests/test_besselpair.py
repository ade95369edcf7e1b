import math
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from hardylab import besselpair
from hardylab.besselpair import (DivergenceError, ODEFailure,
                                 SingularCoefficientError,
                                 improved_weight_auxiliary_pair,
                                 integrate_bessel_ode, momentum_from_profile,
                                 ode_residuals, solve_flux, verify_bessel_pair)
from hardylab.cli import run
from hardylab.scenarios import (Exponents, RadialWeightPair,
                                UnsupportedScenarioError,
                                closed_form_maximizer, default_catalog,
                                scenario_catalog)
from hardylab.spectral import AnnulusProblem, eigenvalue


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


def test_gaussian_a_certificate_on_a_long_interval(tmp_path):
    # phi = exp(r^2/4) grows to 5e97 by r = 30: no blow-up at finite r, so
    # neither the divergence guard nor the positivity margin may scale with
    # max |phi| absolutely
    sc = scenario_catalog("gaussian_a", p=2.0, alpha=2.0, beta=2.0, Q=3.0)
    cert = verify_bessel_pair(sc, (0.5, 30.0))
    assert cert.is_positive, cert
    assert cert.max_ode_residual <= 1e-6, cert
    assert cert.max_closed_form_error <= 1e-6, cert
    assert run(["bessel", "--scenario", "gaussian_a", "--r0", "0.5", "--r1",
                "30", "--out", str(tmp_path / "g.csv")]) == 0


def test_sign_changing_solution_is_not_certified():
    # four times the power pair's lam makes the solution from the closed
    # form's data oscillate: r^-1.5 cos(2.6 ln r + c) changes sign on (0.1, 10)
    sc = scenario_catalog("power", Q=5.0, p=2.0, theta=1.0)
    sc = replace(sc, pair=replace(sc.pair, lam=4.0 * sc.pair.lam))
    cert = verify_bessel_pair(sc, (0.1, 10.0))
    assert not cert.is_positive
    assert cert.min_phi < 0.0


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


# every catalog closed form, over the intervals the benchmark certifies
CATALOG_INTERVALS = {
    "power": (0.1, 10.0), "log_radial": (0.01, 0.9),
    "log_cylindrical": (0.01, 0.9), "gaussian_a": (0.5, 3.0),
    "gaussian_b": (0.2, 4.0), "annulus": (1.1, 2.5), "cylindrical": (0.1, 5.0),
    "strip": (0.1, 5.0), "antisymmetric": (0.1, 10.0),
    "improved_weight": (0.1, 5.0),
}


def _record_solves(monkeypatch):
    """Route every solve_flux solve through a recorder that also runs scipy's
    own solve_ivp(method="DOP853") on the same RHS, span, tolerances and
    event, which it makes terminal."""
    pairs = []
    dop853 = besselpair._dop853

    def both(rhs, t0, y0, t_bound, rtol, atol, event):
        ours = dop853(rhs, t0, y0, t_bound, rtol, atol, event)
        events = None
        if event is not None:
            def events(t, y):
                return event(t, y)

            events.terminal = True
        pairs.append((ours, solve_ivp(rhs, (t0, t_bound), y0, method="DOP853",
                                      rtol=rtol, atol=atol, dense_output=True,
                                      events=events)))
        return ours

    monkeypatch.setattr(besselpair, "_dop853", both)
    return pairs


def test_float_stepper_matches_scipy_dop853(monkeypatch):
    # the two differ only in the rounding of the stage sums (BLAS orders them
    # its own way); for p != 2 that can tip the accept/reject decision of a
    # step across a turning point of phi, where the flux is only
    # C^{1,1/(p-1)}, and part single solves by a few percent of their steps
    # and ~1e2 rtol in the state. No solve here takes such a step: the
    # annulus shot stops at its turning point (a terminal event on w) and
    # restarts there, so the event times agree to ulps and the states to
    # ~1e-11. `_dop853` builds a step's dense piece only when it is read,
    # so its nfev counts fewer pieces than scipy's: compare accepted steps
    pairs = _record_solves(monkeypatch)
    for sc in default_catalog():
        verify_bessel_pair(sc, CATALOG_INTERVALS[sc.name])
    for p in (2.0, 2.5, 3.0, 4.0, 6.0):
        for b in (2.0, math.e, 4.0):
            eigenvalue(AnnulusProblem(Q=5.0, p=p, theta=1.0, a=1.0, b=b))
    assert len(pairs) > 20
    assert sum(ours.t_event is not None for ours, _ in pairs) == 15
    for ours, ref in pairs:
        assert (ours.t_event is not None) == (ref.status == 1)
        final = np.abs(ref.y[:, -1])
        assert np.max(np.abs(ours.y[:, -1] - ref.y[:, -1])) <= 1e-9 * np.max(final)
        if ours.t_event is not None:
            t_ref = ref.t_events[0][0]
            assert abs(ours.t_event - t_ref) <= 1e-10 * abs(t_ref)
    total = sum(len(ref.t) - 1 for _, ref in pairs)
    assert abs(sum(len(ours.t) - 1 for ours, _ in pairs) - total) <= 0.02 * total


def test_float_stepper_dense_output_hits_step_ends(monkeypatch):
    pairs = _record_solves(monkeypatch)
    verify_bessel_pair(scenario_catalog("power", Q=4.0, p=3.0, theta=1.0),
                       (0.2, 5.0))
    eigenvalue(AnnulusProblem(Q=5.0, p=4.0, theta=1.0, a=1.0, b=2.0))
    sc = scenario_catalog("power", Q=5.0, p=2.0, theta=1.0)
    integrate_bessel_ode(sc.pair, sc.exponents, 10.0, (10.0 ** -1.5,
                         -1.5 * 10.0 ** 1.5), 1.0)            # backward
    assert len(pairs) == 4
    for sol, _ in pairs:
        # at a step end sol picks the step that ends there, as OdeSolution
        ends = sol.sol(sol.t)
        assert np.array_equal(ends[:, 0], sol.y[:, 0])
        for k in range(len(sol.t) - 1):
            y0, y1 = sol.y[:, k], sol.y[:, k + 1]
            assert sol._at(k, sol.t[k]) == tuple(y0)
            end = np.array(sol._at(k, sol.t[k + 1]))
            assert np.array_equal(ends[:, k + 1], end)
            assert np.all(np.abs(end - y1) <= 4e-16 * (np.abs(y0) + np.abs(y1)))
            assert sol.sol(sol.t[k]).shape == (2,)


def test_dense_pieces_are_built_once_when_read():
    sc = scenario_catalog("power", Q=5.0, p=2.0, theta=1.0)
    exps = sc.exponents

    def coefficients(r):
        return (float(sc.pair.V(np.array([r]))[0]) * r ** 4,
                sc.pair.lam * float(sc.pair.W(np.array([r]))[0]) * r ** 4)

    sol = solve_flux(coefficients, exps.p, (1.0, 10.0), (1.0, -1.5),
                     1e-10, 1e-12, events=None)
    steps = len(sol.t) - 1
    assert steps > 5 and (sol.nfev - 2) % 12 == 0    # no piece built yet
    solved = sol.nfev
    r = np.linspace(1.0, 10.0, 50)
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
    sol = besselpair._dop853(rhs, 1.0, (2.0, 3.0), 1.0, 1e-10, 1e-12, None)
    assert np.array_equal(sol.t, ref.t) and np.array_equal(sol.y, ref.y)
    assert sol.nfev == ref.nfev == 1 and sol.t_event is None
    r = np.array([0.5, 1.0, 2.0])
    assert np.array_equal(sol.sol(r), ref.sol(r))
    assert np.array_equal(sol.sol(1.0), ref.sol(1.0))


def test_event_root_is_scipy_brentq_on_the_step_piece(monkeypatch):
    from scipy.optimize import brentq

    pairs = _record_solves(monkeypatch)
    for p in (2.0, 3.0, 4.0):
        eigenvalue(AnnulusProblem(Q=5.0, p=p, theta=1.0, a=1.0, b=2.0))
    rises = [sol for sol, _ in pairs if sol.t_event is not None]
    assert len(rises) == 3
    tol = 4 * np.finfo(float).eps
    for sol in rises:
        k = len(sol.t) - 2
        t_old, t_end = sol._steps[k][:2]
        assert t_old < sol.t_event < t_end
        root = brentq(lambda t: sol._at(k, t)[1], t_old, t_end, xtol=tol,
                      rtol=tol)
        assert sol.t_event == root


@pytest.mark.parametrize("f, a, b", [
    pytest.param(lambda x: x ** 3 - 2 * x - 5, 2.0, 3.0, id="cubic"),
    pytest.param(lambda x: math.cos(x) - x, 0.0, 1.0, id="cos"),
    pytest.param(lambda x: x ** 3 - x, 0.5, 2.0, id="cubic_root_1"),
    # a flat root: no convergence in 100 iterations, for scipy too
    pytest.param(lambda x: x ** 9, -1.0, 1.5, id="flat"),
    pytest.param(lambda x: math.exp(x) - 1e3, 0.0, 50.0, id="exp"),
    pytest.param(lambda x: 1.0 if x > 0.3 else -1.0, 0.0, 1.0, id="jump"),
    pytest.param(lambda x: x - 0.25, 0.25, 1.0, id="root_at_an_end"),
    pytest.param(lambda x: math.atan(1e4 * (x - 1e-3)), 1.0, -1.0,
                 id="steep_descending_bracket"),
])
def test_brentq_transcription_matches_scipy_bitwise(f, a, b):
    from scipy.optimize import brentq

    tol = 4 * np.finfo(float).eps
    try:
        root = brentq(f, a, b, xtol=tol, rtol=tol)
    except RuntimeError:    # scipy's failure to converge is an ODEFailure
        with pytest.raises(ODEFailure, match="not found in 100 iterations"):
            besselpair._brentq(f, a, b)
    else:
        assert besselpair._brentq(f, a, b) == root


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


@pytest.mark.parametrize("coefficients, y0, fault", [
    pytest.param(lambda r: (1.0, 1.0), (1e200, 0.0),     # |phi|^(p-2) = 1e400
                 "float overflow", id="overflow"),
    pytest.param(lambda r: (0.0 if r > 0.5 else 1.0, 1.0), (1.0, 0.0),
                 "float division by zero", id="zero_division"),  # m / A, A = 0
])
def test_float_overflow_in_the_rhs_is_an_ode_failure(coefficients, y0, fault):
    # the message names the fault, not the errno tuple of an OverflowError
    with pytest.raises(ODEFailure, match=f"^ODE integration failed: {fault} "
                       "in the right-hand side$"):
        solve_flux(coefficients, 4.0, (0.0, 1.0), y0, 1e-10, 1e-12,
                   events=None)


def test_stiff_solve_ends_at_the_rhs_budget():
    # B = 10^(400 r) turns stiff long before it overflows: without a budget
    # the solve kept taking ever smaller steps for minutes
    start = time.perf_counter()
    with pytest.raises(ODEFailure, match="more than 1000000 RHS evaluations"):
        solve_flux(lambda r: (1.0, 10.0 ** (400.0 * r)), 3.0, (0.0, 1.0),
                   (1.0, 0.0), 1e-10, 1e-12, events=None)
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
