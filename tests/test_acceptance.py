"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 9's strip sub-check is split into its own test: the prescribed
5%-at-eps=1e-3 figure is out of reach for the prescribed test family by a
wide analytic margin (see notes in the repository root README and the strip
rate test in test_geometry.py, which verifies the actual 1/arctanh
convergence law). That single test is expected to stay red; everything else
must be green.
"""

import math
import time

import numpy as np
import pytest

from hardylab.besselpair import verify_bessel_pair
from hardylab.cli import run as cli_run
from hardylab.functional import random_profile_slacks, reduce_radial_functional
from hardylab.geometry import (direct_rayleigh, euclidean, grushin,
                               gauge_gradient_fd_error, greiner,
                               measure_homogeneity_check, strip_quotient,
                               vandermonde_checks)
from hardylab.identities import (realified_identity_oracle,
                                 sample_complex_pairs, scalar_identity_batch,
                                 vector_identity_batch)
from hardylab.profiles import random_profile
from hardylab.scenarios import (closed_form_lambda1_p2, default_catalog,
                                scenario_catalog)
from hardylab.sharpness import improved_weight_check, psi_cutoff, psiR_deficit, \
    sweep_quotient
from hardylab.spectral import (AnnulusProblem, check_lambda1_lower_bound,
                               eigenvalue)

from oracles import check_cp_lower_bound, psi_energy


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {name}" + (f" -- {detail}" if detail else ""),
          flush=True)


def test_criterion_01_scalar_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for p in (2.0, 2.5, 3.0, 4.0):
        rng = np.random.default_rng(10_000 + int(10 * p))
        f, g = sample_complex_pairs(rng, 10_000, radius=10.0)
        out = scalar_identity_batch(p, f, g)
        rel = np.max(out["residual"] / (1e-9 * (1.0 + np.abs(out["rhs_closed"]))))
        worst = max(worst, float(rel))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 and elapsed < 30.0
    _report("criterion 1 (scalar identity, 4 x 1e4 pairs)", ok,
            f"worst residual/tol {worst:.3e}, {elapsed:.1f} s")
    assert worst <= 1.0
    assert elapsed < 30.0


def test_criterion_02_vector_identity():
    worst = 0.0
    for h in (1, 2, 5):
        rng = np.random.default_rng(20_000 + h)
        Z = np.stack([sample_complex_pairs(rng, 10_000, radius=10.0)[0]
                      for _ in range(h)], axis=1)
        X = np.stack([sample_complex_pairs(rng, 10_000, radius=10.0)[0]
                      for _ in range(h)], axis=1)
        for p in (2.0, 2.5, 3.0, 4.0):
            out = vector_identity_batch(p, Z, X)
            rel = np.max(out["residual"]
                         / (1e-9 * (1.0 + np.abs(out["rhs_closed"]))))
            worst = max(worst, float(rel))
    # h = 1 agrees with the scalar path
    rng = np.random.default_rng(21_000)
    f, g = sample_complex_pairs(rng, 2_000, radius=10.0)
    gap_scalar = 0.0
    for p in (2.0, 2.5, 3.0, 4.0):
        sc = scalar_identity_batch(p, f, g)
        vc = vector_identity_batch(p, f[:, None], g[:, None])
        tol = 1e-9 * (1.0 + np.abs(sc["rhs_closed"]))
        gap = np.abs((sc["w_term"] + sc["wtilde_term"])
                     - (vc["w_term"] + vc["wtilde_term"])) / tol
        gap_scalar = max(gap_scalar, float(np.max(gap)))
    # Taylor-remainder oracle agreement
    rng = np.random.default_rng(22_000)
    gap_oracle = 0.0
    for p in (2.0, 2.5, 3.0, 4.0):
        Z = rng.normal(size=(60, 2)) + 1j * rng.normal(size=(60, 2))
        X = rng.normal(size=(60, 2)) + 1j * rng.normal(size=(60, 2))
        out = vector_identity_batch(p, Z, X)
        for i in range(Z.shape[0]):
            mu = np.column_stack([Z[i].real, Z[i].imag]).ravel()
            nu = np.column_stack([X[i].real, X[i].imag]).ravel()
            oro = realified_identity_oracle(p, mu, nu)
            tol = 1e-9 * (1.0 + abs(oro["lhs"]))
            gap_oracle = max(gap_oracle, abs(
                out["w_term"][i] + out["wtilde_term"][i] - oro["rhs"]) / tol)
    ok = worst <= 1.0 and gap_scalar <= 1.0 and gap_oracle <= 1.0
    _report("criterion 2 (vector identity, h in {1,2,5})", ok,
            f"worst/tol {worst:.3e}, scalar gap {gap_scalar:.3e}, "
            f"oracle gap {gap_oracle:.3e}")
    assert worst <= 1.0 and gap_scalar <= 1.0 and gap_oracle <= 1.0


def test_criterion_03_cp_lower_bound():
    worst = math.inf
    for p in (2.0, 3.0):
        out = check_cp_lower_bound(p, 100_000, seed=42)
        worst = min(worst, out["min_slack"])
    ok = worst >= -1e-12
    _report("criterion 3 (c_p lower bound 2^-p, 2 x 1e5 pairs)", ok,
            f"min slack {worst:.3e}")
    assert worst >= -1e-12


def test_criterion_04_bessel_regression():
    cases = [
        ("power", dict(Q=5.0, p=2.0, theta=1.0), (1.0, 10.0)),
        ("log_radial", dict(p=2.0, theta=0.0, R=1.0), (0.01, 0.9)),
        ("gaussian_a", dict(p=2.0, alpha=2.0, beta=2.0, Q=3.0), (0.5, 3.0)),
    ]
    worst_resid = 0.0
    worst_traj = 0.0
    for name, kwargs, interval in cases:
        cert = verify_bessel_pair(scenario_catalog(name, **kwargs), interval)
        assert cert.is_positive, name
        worst_resid = max(worst_resid, cert.max_ode_residual)
        worst_traj = max(worst_traj, cert.max_closed_form_error)
    ok = worst_resid <= 1e-6 and worst_traj <= 1e-6
    _report("criterion 4 (Bessel-pair closed-form regression)", ok,
            f"max ODE residual {worst_resid:.2e}, max trajectory error "
            f"{worst_traj:.2e}")
    assert worst_resid <= 1e-6
    assert worst_traj <= 1e-6


def test_criterion_05_annulus_eigenvalues():
    t0 = time.perf_counter()
    intervals = [(1.0, 2.0), (1.0, math.e), (0.5, 4.0)]
    worst = 0.0
    for i, Q in enumerate((2.0, 3.0, 5.0)):
        for j, theta in enumerate((0.0, 1.0, 2.0)):
            a, b = intervals[(i + j) % 3]
            prob = AnnulusProblem(Q=Q, p=2.0, theta=theta, a=a, b=b)
            res = eigenvalue(prob, which=1)
            ref = closed_form_lambda1_p2(Q, theta, a, b)
            worst = max(worst, abs(res.lam - ref) / ref)
            assert res.zero_count == 0
    prob3 = AnnulusProblem(Q=5.0, p=3.0, theta=1.0, a=1.0, b=2.0)
    res1 = eigenvalue(prob3, which=1)
    res2 = eigenvalue(prob3, which=2)
    elapsed = time.perf_counter() - t0
    ok = (worst <= 1e-8 and res1.lam > 8.0 / 27.0 and res1.zero_count == 0
          and res2.zero_count == 1 and check_lambda1_lower_bound(prob3, res1)
          and elapsed < 60.0)
    _report("criterion 5 (annulus eigenvalues, 9 combos + p=3)", ok,
            f"worst rel err {worst:.2e}, p=3 lam1 {res1.lam:.4f} > 8/27, "
            f"{elapsed:.1f} s")
    assert worst <= 1e-8
    assert res1.lam > 8.0 / 27.0 and res1.zero_count == 0
    assert res2.zero_count == 1
    assert elapsed < 60.0


def test_criterion_06_sharpness_sweeps():
    grid = [1e-2, 1e-3, 1e-4]
    cases = [
        ("power", dict(Q=5.0, p=2.0, theta=1.0), 2.25),
        ("log_radial", dict(p=2.0, theta=0.0, R=1.0), 0.25),
        ("gaussian_b", dict(p=2.0, theta=1.0, alpha=2.0, beta=2.0, Q=5.0), 2.25),
    ]
    all_ok = True
    details = []
    for name, kwargs, sharp in cases:
        sc = scenario_catalog(name, **kwargs)
        assert sc.sharp_constant == pytest.approx(sharp)
        rows = sweep_quotient(sc, grid)
        deficits = [r.deficit for r in rows]
        scaled = [r.scaled_deficit for r in rows]
        ok = (all(d > 0 for d in deficits)
              and deficits[0] > deficits[1] > deficits[2]
              and max(scaled) <= 2.0 * min(scaled))
        all_ok &= ok
        details.append(f"{name}: scaled {', '.join(f'{s:.2f}' for s in scaled)}")
    _report("criterion 6 (sharpness sweeps)", all_ok, "; ".join(details))
    assert all_ok


def test_criterion_07_random_profile_sampling():
    worst_slack = math.inf
    worst_name = ""
    for sc in default_catalog():
        rows = random_profile_slacks(sc, 200, seed=777)
        for row in rows:
            if math.isfinite(row["quotient"]):
                assert row["quotient"] >= sc.sharp_constant * (1.0 - 1e-8), \
                    (sc.name, row)
            if row["slack"] < worst_slack:
                worst_slack, worst_name = row["slack"], sc.name
    ok = worst_slack >= -1e-8
    _report("criterion 7 (200 random profiles x 10 scenarios)", ok,
            f"min normalized slack {worst_slack:.3e} ({worst_name})")
    assert ok


def test_criterion_08_criticality():
    energy_err = max(abs(psi_energy(psi_cutoff(R)) - 2.0 / math.log(R))
                     for R in (10.0, 100.0, math.e ** 2, 1000.0))
    rows = psiR_deficit(5.0, 2.0, [10.0, 100.0, 1000.0])
    scaled = [r["deficit_times_lnR"] for r in rows]
    stable = max(scaled) <= 2.0 * min(scaled)
    improved = improved_weight_check(5.0, 2.0, 100, seed=7)
    ok = energy_err <= 1e-12 and stable and improved["min_slack"] >= -1e-9
    _report("criterion 8 (criticality: psi energy, deficit law, improved "
            "weight)", ok,
            f"energy err {energy_err:.1e}, scaled deficits "
            f"{', '.join(f'{s:.3f}' for s in scaled)}, "
            f"improved min slack {improved['min_slack']:.3e}")
    assert energy_err <= 1e-12
    assert stable
    assert improved["min_slack"] >= -1e-9


def test_criterion_09_geometry():
    t0 = time.perf_counter()
    res = measure_homogeneity_check(grushin(1, 1, 1.0), 2.0, 1.0, 2.0, 10 ** 7,
                                    seed=0x5EED)
    ratio_ok = abs(res["ratio"].mean - 8.0) <= 0.02 * 8.0
    rng = np.random.default_rng(0x5EED)
    grad_err = 0.0
    for model in (euclidean(3), grushin(1, 1, 1.0), greiner(1, 1.0)):
        pts = rng.uniform(0.3, 1.5, size=(200, model.dims)) * rng.choice(
            [-1.0, 1.0], size=(200, model.dims))
        grad_err = max(grad_err, gauge_gradient_fd_error(model, pts))
    vres = vandermonde_checks(3, 1.0, 10 ** 6, seed=0x5EED)
    vand_ok = (vres["harmonicity_residual"] <= 1e-6
               and abs(vres["expected_sphere_eigenvalue"] - 12.0) == 0.0
               and vres["sphere_eigvalue_residual"] <= 1e-5
               and abs(vres["rayleigh_quotient"] - 12.25) <= 0.05 * 12.25)
    elapsed = time.perf_counter() - t0
    ok = ratio_ok and grad_err <= 1e-6 and vand_ok and elapsed < 300.0
    _report("criterion 9 (geometry: measure ratio, gradients, ordered "
            "sector)", ok,
            f"ratio {res['ratio'].mean:.4f} (target 8 +- 2%), grad FD "
            f"{grad_err:.1e}, sector quotient {vres['rayleigh_quotient']:.3f}, "
            f"{elapsed:.0f} s")
    assert ratio_ok
    assert grad_err <= 1e-6
    assert vand_ok
    assert elapsed < 300.0


def test_criterion_09_strip_five_percent():
    """KNOWN RED. The quotient of the prescribed strip family at eps = 1e-3
    is ~0.93: the vertical-truncation energy alone forces
    quotient - 1/4 >= (1/4) * (4/3) / (2 arctanh(sin(pi/2/(1+eps)))) ~ 0.023
    for ANY admissible eta, and the prescribed x-bridge adds ~0.2, so no
    admissible implementation can land within 5% of 0.25 at this eps. The
    convergence law deficit * arctanh -> const is verified in
    test_geometry.py::test_strip_quotient_bounds_and_rate."""
    q = strip_quotient(1.0, 1e-3)
    ok = abs(q - 0.25) <= 0.05 * 0.25 and q > 0.25
    _report("criterion 9-strip (quotient within 5% of 0.25 at eps=1e-3)", ok,
            f"measured quotient {q:.4f}")
    assert q > 0.25
    assert abs(q - 0.25) <= 0.05 * 0.25, (
        f"strip quotient {q:.4f} is not within 5% of 0.25; unattainable for "
        "the prescribed test family (see module docstring)")


def test_criterion_10_direct_vs_reduced():
    sc = scenario_catalog("power", Q=3.0, p=2.0, theta=1.0)
    rng = np.random.default_rng(0xC0FFEE)
    all_ok = True
    details = []
    for model in (euclidean(3), grushin(1, 1, 1.0)):
        for k in range(2):
            phi = random_profile(rng, (0.05, 2.5))
            red = reduce_radial_functional(sc, phi)
            est = direct_rayleigh(model, sc, phi, 2 * 10 ** 6,
                                  seed=3000 + k)
            sigmas = abs(est.mean - red.quotient) / est.std_error
            all_ok &= sigmas <= 3.0
            details.append(f"{model.kind}#{k}: {sigmas:.2f} sigma")
    _report("criterion 10 (direct Monte Carlo vs 1-D reduction)", all_ok,
            "; ".join(details))
    assert all_ok


def test_criterion_11_determinism(tmp_path):
    out_csv = tmp_path / "sweep.csv"
    args = ["sharpness", "--scenario", "power", "--Q", "5", "--p", "2",
            "--theta", "1", "--eps-grid", "1e-2,1e-3", "--seed", "5",
            "--out", str(out_csv)]
    blobs = []
    for _ in range(2):
        assert cli_run(args) == 0
        blobs.append(out_csv.read_bytes())
    out_json = tmp_path / "eig.json"
    jargs = ["eig", "--Q", "3", "--p", "2", "--theta", "1", "--a", "1",
             "--b", "2.718281828", "--seed", "5", "--out", str(out_json)]
    jblobs = []
    for _ in range(2):
        assert cli_run(jargs) == 0
        jblobs.append(out_json.read_bytes())
    ok = blobs[0] == blobs[1] and jblobs[0] == jblobs[1]
    _report("criterion 11 (byte-identical reruns)", ok)
    assert ok
