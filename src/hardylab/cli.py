"""Command-line surface.

Subcommands: identity, bessel, eig, sharpness, geometry, rayleigh, catalog.
Exit codes: 0 all checks passed, 1 a mathematical check failed (inequality
violation, residual above tolerance, or a quadrature, ODE or search that
failed), 2 usage or parameter error. A command raises `CheckFailure` (exit 1)
or `ParameterDomainError`/`ValueError` (exit 2); `run` alone turns them into
one stderr line and the exit code. A JSON config file can supply defaults;
explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import geometry as geo
from .besselpair import verify_bessel_pair
from .functional import random_profile_slacks
from .identities import (sample_complex_pairs, scalar_identity_batch,
                         vector_identity_batch)
from .reports import emit_report
from .scenarios import (CheckFailure, ParameterDomainError, SCENARIO_NAMES,
                        SCENARIO_PARAMETERS, default_catalog, scenario_catalog,
                        scenario_to_json)
from .sharpness import improved_weight_check, psiR_deficit, sweep_quotient
from .spectral import AnnulusProblem, check_lambda1_lower_bound, eigenvalue

# every key some scenario builder accepts, in first-seen order
_SCENARIO_KEYS = tuple(dict.fromkeys(
    k for keys in SCENARIO_PARAMETERS.values() for k in keys))


def _add_scenario_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--scenario", required=False,
                    help=f"one of: {', '.join(SCENARIO_NAMES)}")
    sp.add_argument("--Q", type=float)
    sp.add_argument("--p", type=float)
    sp.add_argument("--theta", type=float)
    sp.add_argument("--beta", type=float,
                    help="homogeneity exponent (power) or Gaussian beta")
    sp.add_argument("--alpha", type=float, help="Gaussian weight exponent")
    sp.add_argument("--R", type=float, help="log-weight scale")
    sp.add_argument("--a", type=float)
    sp.add_argument("--b", type=float)
    sp.add_argument("--m", type=int, help="cylindrical split size")
    sp.add_argument("--N", type=int, help="ambient dimension")
    sp.add_argument("--lambda1", type=float,
                    help="first eigenvalue for annulus scenarios with p != 2")


def _build_scenario(cfg: dict):
    name = cfg.get("scenario")
    if not name:
        raise ParameterDomainError("--scenario is required")
    kwargs = {k: cfg[k] for k in SCENARIO_PARAMETERS.get(name, ())
              if cfg.get(k) is not None}
    return scenario_catalog(name, **kwargs)


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Defaults < config file < explicit flags."""
    cfg = dict(defaults)
    path = getattr(args, "config", None)
    if path:
        with open(path, encoding="utf-8") as fh:
            file_cfg = json.load(fh)
        unknown = set(file_cfg) - set(defaults) - set(_SCENARIO_KEYS) \
            - {"scenario"}
        if unknown:
            raise ParameterDomainError(
                f"unknown config keys: {', '.join(sorted(unknown))}")
        cfg.update(file_cfg)
    for key, value in vars(args).items():
        if key in ("config", "func"):
            continue
        if value is not None:
            cfg[key] = value
        elif key not in cfg:
            cfg[key] = None
    return cfg


def _common_flags(sp: argparse.ArgumentParser, fmt_default: str) -> None:
    sp.add_argument("--format", choices=("csv", "json"), default=None,
                    help=f"output format (default {fmt_default})")
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--config", default=None,
                    help="JSON file with defaults; explicit flags win")


# -------------------------------------------------------------- identity ----

def _cmd_identity(args) -> None:
    cfg = _resolve(args, {"p": 2.0, "samples": 1000, "seed": geo.DEFAULT_SEED,
                          "h": 1, "format": "csv", "out": None})
    p, h = float(cfg["p"]), int(cfg["h"])
    rng = np.random.default_rng(int(cfg["seed"]))
    count = int(cfg["samples"])
    if h == 1:
        f, g = sample_complex_pairs(rng, count)
        out = scalar_identity_batch(p, f, g)
        F, G = f[:, None], g[:, None]
    else:
        F = np.stack([sample_complex_pairs(rng, count)[0] for _ in range(h)], axis=1)
        G = np.stack([sample_complex_pairs(rng, count)[0] for _ in range(h)], axis=1)
        out = vector_identity_batch(p, F, G)
    rows = []
    for i in range(count):
        row = {"p": p, "h": h}
        for j in range(h):
            row[f"re_f{j + 1}"] = float(F[i, j].real)
            row[f"im_f{j + 1}"] = float(F[i, j].imag)
            row[f"re_g{j + 1}"] = float(G[i, j].real)
            row[f"im_g{j + 1}"] = float(G[i, j].imag)
        row["residual"] = float(out["residual"][i])
        row["w_term"] = float(out["w_term"][i])
        row["wtilde_term"] = float(out["wtilde_term"][i])
        rows.append(row)
    tol = 1e-9 * (1.0 + np.abs(out["rhs_closed"]))
    worst = float(np.max(out["residual"] / tol))
    summary = {"max_residual": float(np.max(out["residual"])),
               "max_residual_over_tolerance": worst,
               "pass": bool(worst <= 1.0)}
    emit_report(rows, cfg["format"], cfg["out"], _public(cfg), summary)
    if not summary["pass"]:
        raise CheckFailure("scalar/vector identity residual exceeded "
                           "1e-9 (1 + |rhs|)")


# -------------------------------------------------------------- bessel ------

def _cmd_bessel(args) -> None:
    cfg = _resolve(args, {"r0": None, "r1": None, "format": "csv", "out": None,
                          "seed": geo.DEFAULT_SEED,
                          **dict.fromkeys(_SCENARIO_KEYS),
                          "scenario": None})
    scenario = _build_scenario(cfg)
    lo, hi = scenario.pair.interval
    r0 = cfg["r0"] if cfg["r0"] is not None else (lo + 0.1 if lo > 0 else 0.1)
    r1 = cfg["r1"] if cfg["r1"] is not None else min(10.0 * r0, 0.9 * hi
                                                     if math.isfinite(hi) else 10.0 * r0)
    r0, r1 = float(r0), float(r1)
    cert = verify_bessel_pair(scenario, (r0, r1))
    r = np.linspace(r0, r1, 200)
    phi, momentum = cert.solution(r)
    rows = [{"r": float(x), "phi": float(f), "momentum": float(m),
             "residual": float(e)}
            for x, f, m, e in zip(r, phi, momentum, cert.residual(r))]
    summary = {"is_positive": cert.is_positive, "min_phi": cert.min_phi,
               "max_ode_residual": cert.max_ode_residual,
               "max_closed_form_error": cert.max_closed_form_error,
               "pass": bool(cert.is_positive
                            and cert.max_ode_residual <= 1e-6
                            and cert.max_closed_form_error <= 1e-6)}
    emit_report(rows, cfg["format"], cfg["out"], _public(cfg), summary)
    if not summary["pass"]:
        raise CheckFailure("Bessel-pair certificate (positivity of the ODE "
                           "solution or closed-form residual above 1e-6)")


# -------------------------------------------------------------- eig ---------

def _cmd_eig(args) -> None:
    cfg = _resolve(args, {"Q": 3.0, "p": 2.0, "theta": 1.0, "a": 1.0,
                          "b": math.e, "tol": 1e-8, "which": 1,
                          "format": "json", "out": None,
                          "eigenfunction_out": None, "seed": geo.DEFAULT_SEED})
    problem = AnnulusProblem(Q=float(cfg["Q"]), p=float(cfg["p"]),
                             theta=float(cfg["theta"]), a=float(cfg["a"]),
                             b=float(cfg["b"]))
    result = eigenvalue(problem, which=int(cfg["which"]), tol=float(cfg["tol"]))
    rows = [{"lambda": result.lam, "zero_count": result.zero_count,
             "endpoint_residual": result.endpoint_residual}]
    bound_ok = check_lambda1_lower_bound(problem, result)
    summary = {"lambda": result.lam, "zero_count": result.zero_count,
               "endpoint_residual": result.endpoint_residual,
               "lemma_lower_bound": problem.lemma_lower_bound,
               "exceeds_lower_bound": bound_ok}
    emit_report(rows, cfg["format"], cfg["out"], _public(cfg), summary)
    if cfg["eigenfunction_out"]:
        r = np.linspace(problem.a, problem.b, 400)
        samples = [{"r": float(x), "phi": float(result.eigenfunction.value(x))}
                   for x in r]
        from .reports import render_csv
        with open(cfg["eigenfunction_out"], "w", encoding="utf-8",
                  newline="") as fh:
            fh.write(render_csv(samples))
    if not bound_ok:
        raise CheckFailure("first eigenvalue does not exceed the lower bound "
                           "|(Q - p theta)/p|^p")


# -------------------------------------------------------------- sharpness ---

def _cmd_sharpness(args) -> None:
    cfg = _resolve(args, {"mode": "sweep", "eps_grid": "1e-2,1e-3,1e-4",
                          "R_grid": "10,100,1000", "profiles": 100,
                          "format": "csv", "out": None,
                          "seed": geo.DEFAULT_SEED,
                          **dict.fromkeys(_SCENARIO_KEYS),
                          "scenario": None})
    mode = cfg["mode"]
    if mode == "sweep":
        scenario = _build_scenario(cfg)
        grid = [float(t) for t in str(cfg["eps_grid"]).split(",")]
        rows_obj = sweep_quotient(scenario, grid)
        rows = [{"epsilon": r.epsilon, "quotient": r.quotient,
                 "deficit": r.deficit, "scaled_deficit": r.scaled_deficit}
                for r in rows_obj]
        scaled = [r.scaled_deficit for r in rows_obj]
        stable = (max(scaled) <= 2.0 * min(scaled)
                  and all(b.deficit < a.deficit
                          for a, b in zip(rows_obj, rows_obj[1:])))
        summary = {"scenario": scenario.name,
                   "sharp_constant": scenario.sharp_constant,
                   "grid": grid, "stable": bool(stable)}
    elif mode == "psi":
        Q = float(cfg["Q"] if cfg["Q"] is not None else 5.0)
        p = float(cfg["p"] if cfg["p"] is not None else 2.0)
        grid = [float(t) for t in str(cfg["R_grid"]).split(",")]
        rows = psiR_deficit(Q, p, grid)
        scaled = [r["deficit_times_lnR"] for r in rows]
        summary = {"Q": Q, "p": p, "grid": grid,
                   "stable": bool(max(scaled) <= 2.0 * min(scaled))}
    elif mode == "improved":
        Q = float(cfg["Q"] if cfg["Q"] is not None else 5.0)
        p = float(cfg["p"] if cfg["p"] is not None else 2.0)
        res = improved_weight_check(Q, p, int(cfg["profiles"]),
                                    int(cfg["seed"]))
        rows = [{"index": i, "slack": s} for i, s in enumerate(res["slacks"])]
        summary = {"Q": Q, "p": p, "min_slack": res["min_slack"]}
    else:
        raise ParameterDomainError(f"unknown sharpness mode {mode!r}")
    emit_report(rows, cfg["format"], cfg["out"], _public(cfg), summary)
    if mode == "improved" and summary["min_slack"] < -1e-9:
        raise CheckFailure("improved-weight inequality violated "
                           "(slack below -1e-9)")


# -------------------------------------------------------------- geometry ----

def _geometry_model(cfg: dict):
    kind = cfg.get("model")
    if kind == "euclidean":
        return geo.euclidean(int(cfg["N"] if cfg["N"] is not None else 3))
    if kind == "grushin":
        return geo.grushin(int(cfg["n"] if cfg["n"] is not None else 1),
                           int(cfg["k"] if cfg["k"] is not None else 1),
                           float(cfg["gamma"] if cfg["gamma"] is not None else 1.0))
    if kind == "greiner":
        return geo.greiner(int(cfg["n"] if cfg["n"] is not None else 1),
                           float(cfg["gamma"] if cfg["gamma"] is not None else 1.0))
    if kind == "cylindrical":
        return geo.cylindrical_split(int(cfg["m"] if cfg["m"] is not None else 2),
                                     int(cfg["N"] if cfg["N"] is not None else 3))
    raise ParameterDomainError(
        "model must be euclidean | grushin | greiner | cylindrical")


def _cmd_geometry(args) -> None:
    cfg = _resolve(args, {**dict.fromkeys(_SCENARIO_KEYS),
                          "scenario": None,
                          "model": None, "check": None, "n": None, "k": None,
                          "gamma": None, "alpha": 2.0, "R1": 1.0, "R2": 2.0,
                          "samples": 10 ** 6, "epsilon": 1e-3,
                          "format": "json", "out": None,
                          "seed": geo.DEFAULT_SEED})
    check = cfg["check"]
    seed = int(cfg["seed"])
    if check == "strip":
        theta = float(cfg["theta"] if cfg["theta"] is not None else 1.0)
        q = geo.strip_quotient(theta, float(cfg["epsilon"]))
        expected = ((2.0 * theta - 1.0) / 2.0) ** 2
        record = {"model": "strip", "check": check, "estimate": q,
                  "std_error": 0.0, "expected": expected,
                  "pass": bool(q >= expected - 1e-9)}
    elif check == "vandermonde":
        N = int(cfg["N"] if cfg["N"] is not None else 3)
        theta = float(cfg["theta"] if cfg["theta"] is not None else 1.0)
        res = geo.vandermonde_checks(N, theta, int(cfg["samples"]), seed)
        ok = (res["harmonicity_residual"] <= 1e-6
              and res["sphere_eigvalue_residual"] <= 1e-5
              and abs(res["rayleigh_quotient"] - res["expected_constant"])
              <= 0.05 * res["expected_constant"])
        record = {"model": f"vandermonde(N={N})", "check": check,
                  "estimate": res["rayleigh_quotient"],
                  "std_error": res["rayleigh_std_error"],
                  "expected": res["expected_constant"], "pass": bool(ok),
                  "harmonicity_residual": res["harmonicity_residual"],
                  "sphere_eigvalue_residual": res["sphere_eigvalue_residual"]}
    else:
        model = _geometry_model(cfg)
        if check == "homogeneity":
            err = geo.homogeneity_error(model, seed=seed)
            record = {"model": model.kind, "check": check, "estimate": err,
                      "std_error": 0.0, "expected": 0.0,
                      "pass": bool(err <= 1e-12)}
        elif check == "gradient":
            rng = np.random.default_rng(seed)
            pts = rng.uniform(0.3, 1.5, size=(200, model.dims)) \
                * rng.choice([-1.0, 1.0], size=(200, model.dims))
            err = geo.gauge_gradient_fd_error(model, pts)
            record = {"model": model.kind, "check": check, "estimate": err,
                      "std_error": 0.0, "expected": 0.0,
                      "pass": bool(err <= 1e-6)}
        elif check == "measure":
            res = geo.measure_homogeneity_check(
                model, float(cfg["alpha"]), float(cfg["R1"]), float(cfg["R2"]),
                int(cfg["samples"]), seed)
            record = {"model": model.kind, "check": check,
                      "estimate": res["ratio"].mean,
                      "std_error": res["ratio"].std_error,
                      "expected": res["expected"], "pass": bool(res["pass"]),
                      "inconclusive": bool(res["inconclusive"])}
        elif check == "orthogonality":
            err = geo.cylindrical_orthogonality_error(model, seed=seed)
            record = {"model": model.kind, "check": check, "estimate": err,
                      "std_error": 0.0, "expected": 0.0,
                      "pass": bool(err <= 1e-12)}
        elif check == "direct":
            scenario = _build_scenario(cfg)
            from .profiles import random_profile
            rng = np.random.default_rng(seed)
            interval = (scenario.pair.interval[0],
                        min(scenario.pair.interval[1], 3.0))
            phi = random_profile(rng, interval)
            from .functional import reduce_radial_functional
            red = reduce_radial_functional(scenario, phi)
            est = geo.direct_rayleigh(model, scenario, phi,
                                      int(cfg["samples"]), seed)
            gap = abs(est.mean - red.quotient)
            record = {"model": model.kind, "check": check,
                      "estimate": est.mean, "std_error": est.std_error,
                      "expected": red.quotient,
                      "pass": bool(gap <= 3.0 * est.std_error)}
        else:
            raise ParameterDomainError(
                "check must be homogeneity | gradient | measure | "
                "orthogonality | direct | strip | vandermonde")
    emit_report([record], cfg["format"], cfg["out"], _public(cfg),
                {"pass": record["pass"]})
    if not record["pass"]:
        message = (f"geometry check {check} (estimate {record['estimate']} "
                   f"vs expected {record['expected']})")
        if not record.get("inconclusive", False):
            raise CheckFailure(message)
        print(f"INCONCLUSIVE: {message}", file=sys.stderr)


# -------------------------------------------------------------- rayleigh ----

def _cmd_rayleigh(args) -> None:
    cfg = _resolve(args, {"profiles": 200, "format": "csv", "out": None,
                          "seed": geo.DEFAULT_SEED,
                          **dict.fromkeys(_SCENARIO_KEYS),
                          "scenario": None})
    scenario = _build_scenario(cfg)
    rows = random_profile_slacks(scenario, int(cfg["profiles"]),
                                 int(cfg["seed"]))
    min_slack = min(r["slack"] for r in rows)
    summary = {"scenario": scenario.name,
               "sharp_constant": scenario.sharp_constant,
               "min_slack": min_slack, "pass": bool(min_slack >= -1e-8)}
    emit_report(rows, cfg["format"], cfg["out"], _public(cfg), summary)
    if not summary["pass"]:
        raise CheckFailure(f"sampled quotient fell below the sharp constant "
                           f"for {scenario.name} (min normalized slack "
                           f"{min_slack})")


# -------------------------------------------------------------- catalog -----

def _cmd_catalog(args) -> None:
    cfg = _resolve(args, {"format": "json", "out": None,
                          "seed": geo.DEFAULT_SEED})
    rows = []
    for sc in default_catalog():
        doc = json.loads(scenario_to_json(sc))
        rows.append({"name": sc.name, "p": sc.exponents.p,
                     "theta": sc.exponents.theta, "Q": sc.exponents.Q,
                     "sharp_constant": sc.sharp_constant,
                     "maximizer": doc["maximizer"]})
    emit_report(rows, cfg["format"], cfg["out"], _public(cfg),
                {"count": len(rows)})


def _public(cfg: dict) -> dict:
    return {k: v for k, v in sorted(cfg.items()) if v is not None}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hardylab",
        description="Numerical verification of weighted Hardy-type "
                    "inequalities, Bessel pairs, and sharp constants.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser(
        "identity",
        help="sampled residuals of the p >= 2 algebraic identity",
        description="Splits |f|^p + (p-1)|g|^p - p|g|^(p-2) Re(conj(g) f) "
                    "into its two nonnegative s-integrals and reports the "
                    "reconstruction residual per sampled pair; the identity "
                    "underlies every inequality in the catalog.")
    sp.add_argument("--p", type=float)
    sp.add_argument("--samples", type=int)
    sp.add_argument("--h", type=int, help="vector length (1 = scalar identity)")
    _common_flags(sp, "csv")
    sp.set_defaults(func=_cmd_identity)

    sp = sub.add_parser(
        "bessel",
        help="Bessel-pair certificate for a catalog scenario",
        description="Integrates the radial ODE from closed-form-seeded data, "
                    "certifies positivity of the solution, and reports the "
                    "closed form's pointwise ODE residual; for "
                    "improved_weight the auxiliary exp(-r) pair is certified.")
    _add_scenario_args(sp)
    sp.add_argument("--r0", type=float)
    sp.add_argument("--r1", type=float)
    _common_flags(sp, "csv")
    sp.set_defaults(func=_cmd_bessel)

    sp = sub.add_parser(
        "eig",
        help="annulus p-Laplacian eigenvalues by shooting",
        description="First (or second) eigenvalue of the radial p-Laplacian "
                    "on a < r < b with zero boundary values; for p = 2 it "
                    "matches ((Q-2 theta)/2)^2 + (pi/ln(b/a))^2 and it always "
                    "exceeds |(Q-p theta)/p|^p.")
    sp.add_argument("--Q", type=float)
    sp.add_argument("--p", type=float)
    sp.add_argument("--theta", type=float)
    sp.add_argument("--a", type=float)
    sp.add_argument("--b", type=float)
    sp.add_argument("--tol", type=float)
    sp.add_argument("--which", type=int, choices=(1, 2))
    sp.add_argument("--eigenfunction-out", dest="eigenfunction_out")
    _common_flags(sp, "json")
    sp.set_defaults(func=_cmd_eig)

    sp = sub.add_parser(
        "sharpness",
        help="cut-off sweeps toward the sharp constants",
        description="mode=sweep: quotient of maximizer times plateau cut-off "
                    "along an eps grid (deficit decays like 1/ln(1/(4 eps^2))). "
                    "mode=psi: Hardy deficit of the piecewise-log cut-off, "
                    "deficit * ln R bounded. mode=improved: sampled slack of "
                    "the improved-weight inequality.")
    _add_scenario_args(sp)
    sp.add_argument("--mode", choices=("sweep", "psi", "improved"))
    sp.add_argument("--eps-grid", dest="eps_grid")
    sp.add_argument("--R-grid", dest="R_grid")
    sp.add_argument("--profiles", type=int)
    _common_flags(sp, "csv")
    sp.set_defaults(func=_cmd_sharpness)

    sp = sub.add_parser(
        "geometry",
        help="gauge-model checks (homogeneity, gradients, measure scaling, "
             "strip, ordered-sector)",
        description="Verifies the closed-form gauge gradients against finite "
                    "differences, the gauge-ball scaling law "
                    "Phi(R) = lambda_alpha R^Q by Monte Carlo, the strip "
                    "quotient bound ((2 theta-1)/2)^2, the ordered-sector "
                    "constant ((N^2-2 theta)/2)^2 + N(N-1)(theta-1), and the "
                    "agreement of the direct quotient with its 1-D reduction.")
    sp.add_argument("--model",
                    choices=("euclidean", "grushin", "greiner", "cylindrical"))
    sp.add_argument("--check",
                    choices=("homogeneity", "gradient", "measure",
                             "orthogonality", "direct", "strip", "vandermonde"))
    sp.add_argument("--n", type=int)
    sp.add_argument("--k", type=int)
    sp.add_argument("--gamma", type=float)
    sp.add_argument("--R1", type=float)
    sp.add_argument("--R2", type=float)
    sp.add_argument("--samples", type=int)
    sp.add_argument("--epsilon", type=float)
    _add_scenario_args(sp)   # adds --alpha, shared with the measure exponent
    _common_flags(sp, "json")
    sp.set_defaults(func=_cmd_geometry)

    sp = sub.add_parser(
        "rayleigh",
        help="random-profile inequality sampling",
        description="Draws seeded random bump profiles and checks the reduced "
                    "quotient against the scenario's sharp constant; every "
                    "quotient must clear it (up to 1e-8 relative).")
    _add_scenario_args(sp)
    sp.add_argument("--profiles", type=int)
    _common_flags(sp, "csv")
    sp.set_defaults(func=_cmd_rayleigh)

    sp = sub.add_parser(
        "catalog",
        help="list the scenario catalog with sharp constants",
        description="One representative instance per inequality family with "
                    "its exponents and closed-form sharp constant.")
    _common_flags(sp, "json")
    sp.set_defaults(func=_cmd_catalog)
    return ap


def run(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.func(args)
    except (FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CheckFailure as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
