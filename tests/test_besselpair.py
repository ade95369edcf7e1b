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


def _scalar_rhs(coefficients, p, drift):
    """solve_flux's RHS at one r, from the coefficients at a one-element
    array: the right-hand side scipy's solve_ivp steps."""
    def rhs(r, y):
        A, B = (float(np.reshape(c, -1)[0])
                for c in coefficients(np.array([r])))
        w = y[1] / A
        return (math.copysign(abs(w) ** (1.0 / (p - 1.0)), w) + drift * y[0],
                -drift * y[1] - B * abs(y[0]) ** (p - 2.0) * y[0])

    return rhs


def _record_solves(monkeypatch):
    """Route every solve_flux solve through a recorder that also runs scipy's
    own solve_ivp(method="DOP853") on the same RHS, span and tolerances."""
    pairs = []
    dop853 = besselpair._dop853

    def both(coefficients, p, drift, t0, y0, t_bound, rtol, atol, blowup):
        ours = dop853(coefficients, p, drift, t0, y0, t_bound, rtol, atol,
                      blowup)
        pairs.append((ours, solve_ivp(_scalar_rhs(coefficients, p, drift),
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
    for sc in default_catalog():
        verify_bessel_pair(sc, CATALOG_INTERVALS[sc.name])
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
            F = sol._piece(k)
            assert besselpair._horner(F, 0.0, tuple(y0)) == tuple(y0)
            end = np.array(besselpair._horner(F, 1.0, tuple(y0)))
            assert np.array_equal(ends[:, k + 1], end)
            assert np.all(np.abs(end - y1) <= 4e-16 * (np.abs(y0) + np.abs(y1)))
            assert sol.sol(sol.t[k]).shape == (2,)


def _record_coefficient_calls(monkeypatch):
    """Route every solve_flux solve through a recorder of its coefficient
    calls: per solve, the solution and each call's (radii, A, B)."""
    solves = []
    dop853 = besselpair._dop853

    def recorded(coefficients, *args):
        calls = []

        def record(r):
            A, B = coefficients(r)
            calls.append((r.copy(), A, B))
            return A, B

        solves.append((dop853(record, *args), calls))
        return solves[-1][0]

    monkeypatch.setattr(besselpair, "_dop853", recorded)
    return solves


def test_stage_array_coefficients_are_the_one_element_ones(monkeypatch):
    # V, W and z see a step's whole array of stage radii; every value must be
    # the bits they give at a one-element array, whose r^mu is libm's pow,
    # at the stage radii of real solves of every catalog certificate (the
    # improved_weight one is its auxiliary pair's)
    solves = _record_coefficient_calls(monkeypatch)
    scenarios = default_catalog()
    assert {sc.name for sc in scenarios} == set(CATALOG_INTERVALS)
    for sc in scenarios:
        del solves[:]
        verify_bessel_pair(sc, CATALOG_INTERVALS[sc.name])
        exps = sc.exponents
        pair = (improved_weight_auxiliary_pair(exps.Q, exps.p)[0]
                if sc.name == "improved_weight" else sc.pair)
        coefficients = besselpair._bessel_coefficients(
            pair, exps.measure_exponent, sc.numerator_zero_order)
        ((_, calls),) = solves
        assert {len(r) for r, _, _ in calls} == {1, 15}, sc.name
        for r, A, B in calls:
            one = np.array([coefficients(np.array([x])) for x in r.tolist()])
            assert one[:, :, 0].tobytes() == np.array([A, B]).T.tobytes(), \
                (sc.name, r)


def test_one_coefficient_call_per_attempt_piece_and_start(monkeypatch):
    solves = _record_coefficient_calls(monkeypatch)
    sc = scenario_catalog("power", Q=4.0, p=3.0, theta=1.0)
    dense = integrate_bessel_ode(sc.pair, sc.exponents, 0.2, (1.0, -1.0), 5.0)
    dense(np.linspace(0.2, 5.0, 40))
    eigenvalue(AnnulusProblem(Q=5.0, p=4.0, theta=1.0, a=1.0, b=2.0))
    assert len(solves) == 3
    for sol, calls in solves:
        sizes = [len(r) for r, _, _ in calls]
        # the start f(t0) and the initial step's probe, then the attempts,
        # each with its 12 stage radii and its dense piece's 3; building a
        # piece reads the coefficients its step stored
        assert sizes[:2] == [1, 1] and sizes.count(1) == 2
        attempts = sizes.count(15)
        assert attempts + 2 == len(calls)
        assert sol.nfev == 12 * attempts + 3 * len(sol._pieces) + 2
        assert attempts >= len(sol.t) - 1
        steps = [r for r, _, _ in calls if len(r) == 15]
        for t_old, t, *_ in sol._steps:     # each accepted step's radii
            r = t_old + besselpair._C * (t - t_old)
            assert any(np.array_equal(r, x) for x in steps)
        # the annulus coefficients are the constants A and lam A, as floats
        if sol is not solves[0][0]:
            assert all(isinstance(A, float) for _, A, _ in calls)
    assert solves[0][0]._pieces


def test_dense_pieces_are_built_once_when_read():
    sc = scenario_catalog("power", Q=5.0, p=2.0, theta=1.0)
    exps = sc.exponents

    def coefficients(r):
        return sc.pair.V(r) * r ** 4, sc.pair.lam * sc.pair.W(r) * r ** 4

    sol = solve_flux(coefficients, exps.p, (1.0, 10.0), (1.0, -1.5),
                     1e-10, 1e-12)
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
    # phi' = m, m' = -phi: solve_flux's RHS at p = 2, A = B = 1, no drift
    sol = besselpair._dop853(lambda r: (1.0, 1.0), 2.0, 0.0, 1.0, (2.0, 3.0),
                             1.0, 1e-10, 1e-12, math.inf)
    assert np.array_equal(sol.t, ref.t) and np.array_equal(sol.y, ref.y)
    assert sol.nfev == ref.nfev == 1
    r = np.array([0.5, 1.0, 2.0])
    assert np.array_equal(sol.sol(r), ref.sol(r))
    assert np.array_equal(sol.sol(1.0), ref.sol(1.0))


def test_generated_stages_are_the_tableau_rows_summed_in_order():
    # the straight-line stage code against the tableau summed by loops, each
    # row from 0.0 in its order, with the RHS taken stage by stage
    def rhs(z, A, B, p, d):
        return _scalar_rhs(lambda r: (A, B), p, d)(0.0, z)

    def combine(K, row):
        d0 = d1 = 0.0
        for j, a in row.items():
            d0 += K[j][0] * a
            d1 += K[j][1] * a
        return d0, d1

    def add_stages(K, y, h, stages, A, B, p, d):
        for n, (_, row) in enumerate(stages):
            d0, d1 = combine(K, row)
            z = (y[0] + d0 * h, y[1] + d1 * h)
            K.append(rhs(z, A[n], B[n], p, d))
        return z

    rng = np.random.default_rng(27)
    for p, d in ((2.0, 0.0), (3.0, 0.7), (2.5, -1.3), (8.0, 0.0)):
        y, f = (tuple(rng.normal(size=2).tolist()) for _ in range(2))
        h = float(rng.uniform(0.01, 0.2))
        A, B = rng.uniform(0.5, 2.0, 15).tolist(), rng.normal(size=15).tolist()
        args = (1.0 / (p - 1.0), p - 2.0, d)
        assert besselpair._slope(*y, 0.0, (), A, B, *args) == rhs(y, A[0],
                                                                 B[0], p, d)
        K = [f]
        y_new = add_stages(K, y, h, besselpair._STAGES, A, B, p, d)
        flat, *rest = besselpair._step(*y, h, f, A, B, *args)
        assert flat == tuple(x for k in K for x in k)
        assert rest == [y_new, combine(K, besselpair._E5),
                        combine(K, besselpair._E3)]
        add_stages(K, y, h, besselpair._EXTRA, A[12:], B[12:], p, d)
        assert besselpair._dense(*y, h, flat, A[12:], B[12:], *args) == tuple(
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


@pytest.mark.parametrize("coefficients, y0, fault", [
    pytest.param(lambda r: (1.0, 1.0), (1e200, 0.0),     # |phi|^(p-2) = 1e400
                 "float overflow", id="overflow"),
    pytest.param(lambda r: (np.where(r > 0.5, 0.0, 1.0), 1.0), (1.0, 0.0),
                 "float division by zero", id="zero_division"),  # m / A, A = 0
])
def test_float_overflow_in_the_rhs_is_an_ode_failure(coefficients, y0, fault):
    # the message names the fault, not the errno tuple of an OverflowError
    with pytest.raises(ODEFailure, match=f"^ODE integration failed: {fault} "
                       "in the right-hand side$"):
        solve_flux(coefficients, 4.0, (0.0, 1.0), y0, 1e-10, 1e-12)


def test_stiff_solve_ends_at_the_rhs_budget():
    # B = 10^(400 r) turns stiff long before it overflows: without a budget
    # the solve kept taking ever smaller steps for minutes
    start = time.perf_counter()
    with pytest.raises(ODEFailure, match="more than 1000000 RHS evaluations"):
        solve_flux(lambda r: (1.0, 10.0 ** (400.0 * r)), 3.0, (0.0, 1.0),
                   (1.0, 0.0), 1e-10, 1e-12)
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


def test_divergence_detected(monkeypatch):
    from scipy.optimize import brentq
    from scipy.special import i0e, i1e, k0e, k1e

    def V(r):
        return np.ones_like(np.asarray(r, dtype=float))

    def W(r):
        return -np.ones_like(np.asarray(r, dtype=float))

    solves = []

    class Recorded(besselpair.FluxSolution):
        def __init__(self, rhs):
            super().__init__(rhs)
            solves.append(self)

    monkeypatch.setattr(besselpair, "FluxSolution", Recorded)
    pair = RadialWeightPair(V, W, 200.0, (0.0, math.inf), W_nonnegative=False)
    exps = Exponents(p=2.0, theta=1.0, Q=2.0)
    with pytest.raises(DivergenceError) as err:
        integrate_bessel_ode(pair, exps, 1.0, (1.0, 1.0), 30.0)
    # (r phi')' = 200 r phi from phi(1) = phi'(1) = 1 is phi = A I0(k r) +
    # B K0(k r), k = sqrt(200); the guard names the first step end past the
    # r where phi crosses 1e12
    k = math.sqrt(200.0)
    A, B = np.linalg.solve([[i0e(k) * math.exp(k), k0e(k) * math.exp(-k)],
                            [k * i1e(k) * math.exp(k),
                             -k * k1e(k) * math.exp(-k)]], [1.0, 1.0])
    crossing = brentq(lambda r: A * i0e(k * r) * math.exp(k * r)
                      + B * k0e(k * r) * math.exp(-k * r) - 1e12, 1.0, 30.0)
    (sol,) = solves
    before, last = sol._steps[-2][1], sol._steps[-1][1]
    assert before < crossing <= last
    assert str(err.value) == f"|phi| exceeded 1e+12 at r = {last:.6g}"
