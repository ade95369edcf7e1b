"""Command-line surface.

Subcommands: identity, bessel, eig, sharpness, geometry, rayleigh, catalog.
Each flag declares its own default. A JSON config file (`--config`) may carry
only the subcommand's own flag names (argparse dests such as `eps_grid`); its
values become the subcommand's defaults, so explicit flags win. Each command
builds its rows and summary and takes its verdict (a failure message or None)
from the module that computes what the verdict judges. `run` writes the
report, prints the `FAIL:` line and maps the outcome to an
exit code: 0 all checks passed, 1 a verdict failed or a quadrature, a
coefficient probe or a search could not be carried out (`CheckFailure`), 2
usage or parameter error (`ParameterDomainError`/`ValueError`, one that
overflows, or a bad config).

Each command imports the layers it runs in its own body, so a cold process
loads only those; none loads scipy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .reports import emit_report, render_csv
from .scenarios import (DEFAULT_SEED, CheckFailure, ParameterDomainError,
                        SCENARIO_NAMES, SCENARIO_PARAMETERS, default_catalog,
                        scenario_catalog, scenario_to_json)


def _or(value, default):
    return default if value is None else value


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


def _build_scenario(args):
    if not args.scenario:
        raise ParameterDomainError("--scenario is required")
    keys = SCENARIO_PARAMETERS.get(args.scenario, ())
    kwargs = {k: getattr(args, k) for k in keys if getattr(args, k) is not None}
    return scenario_catalog(args.scenario, **kwargs)


def _read_config(path: str, parsed: argparse.Namespace) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ParameterDomainError(
            f"config file must hold a JSON object, got {type(doc).__name__}")
    unknown = set(doc) - (set(vars(parsed)) - {"config", "func"})
    if unknown:
        raise ParameterDomainError(
            f"unknown config keys: {', '.join(sorted(unknown))}")
    for key, value in doc.items():
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise ParameterDomainError(
                f"config key {key!r} must be a number or a string, "
                f"got {json.dumps(value)}")
    return doc


class _CommandParser(argparse.ArgumentParser):
    """Subcommand parser: defaults < `--config` file < explicit flags."""

    def parse_known_args(self, args=None, namespace=None):
        parsed, extras = super().parse_known_args(args, namespace)
        if parsed.config:
            self.set_defaults(**_read_config(parsed.config, parsed))
            parsed, extras = super().parse_known_args(args, namespace)
        return parsed, extras


def _common_flags(sp: argparse.ArgumentParser, fmt_default: str) -> None:
    sp.add_argument("--format", choices=("csv", "json"), default=fmt_default,
                    help=f"output format (default {fmt_default})")
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sp.add_argument("--config", default=None,
                    help="JSON file with defaults; explicit flags win")


# -------------------------------------------------------------- identity ----

def _cmd_identity(args):
    from .identities import (identity_verdict, sample_complex_pairs,
                             scalar_identity_batch, vector_identity_batch)

    p, h = float(args.p), int(args.h)
    if h < 1:
        raise ParameterDomainError(f"h must be ≥ 1, got {h}")
    rng = np.random.default_rng(int(args.seed))
    count = int(args.samples)
    if h == 1:
        f, g = sample_complex_pairs(rng, count)
        out = scalar_identity_batch(p, f, g)
        F, G = f[:, None], g[:, None]
    else:
        # component j is draw j's own (f, g), near-collinear rows included
        F, G = np.stack([sample_complex_pairs(rng, count) for _ in range(h)],
                        axis=2)
        out = vector_identity_batch(p, F, G)
    columns = {"p": [p] * count, "h": [h] * count}
    for j in range(h):
        columns[f"re_f{j + 1}"] = F[:, j].real.tolist()
        columns[f"im_f{j + 1}"] = F[:, j].imag.tolist()
        columns[f"re_g{j + 1}"] = G[:, j].real.tolist()
        columns[f"im_g{j + 1}"] = G[:, j].imag.tolist()
    for key in ("residual", "w_term", "wtilde_term"):
        columns[key] = out[key].tolist()
    rows = [dict(zip(columns, values)) for values in zip(*columns.values())]
    worst, failure = identity_verdict(out)
    return rows, {"max_residual": float(np.max(out["residual"])),
                  "max_residual_over_tolerance": worst,
                  "pass": failure is None}, failure


# -------------------------------------------------------------- bessel ------

def _cmd_bessel(args):
    from .besselpair import verify_bessel_pair

    scenario = _build_scenario(args)
    lo, hi = scenario.pair.interval
    w = hi - lo     # fractions of the width keep the defaults inside (lo, hi)
    r0 = float(_or(args.r0, lo + min(0.1, w / 4.0)))
    r1 = float(_or(args.r1, min(10.0 * r0, max(0.9 * hi, lo + 0.75 * w))
                   if math.isfinite(hi) else 10.0 * r0))
    cert = verify_bessel_pair(scenario, (r0, r1))
    r = np.linspace(r0, r1, 200)
    phi, momentum = cert.solution(r)
    rows = [{"r": float(x), "phi": float(f), "momentum": float(m),
             "residual": float(e)}
            for x, f, m, e in zip(r, phi, momentum, cert.residual(r))]
    return rows, {"is_positive": cert.is_positive, "min_phi": cert.min_phi,
                  "max_ode_residual": cert.max_ode_residual,
                  "max_closed_form_error": cert.max_closed_form_error,
                  "max_flux_over_budget": cert.max_flux_over_budget,
                  "max_phi_over_budget": cert.max_phi_over_budget,
                  "pass": cert.failure is None}, cert.failure


# -------------------------------------------------------------- eig ---------

def _cmd_eig(args):
    from .spectral import (AnnulusProblem, check_lambda1_lower_bound,
                           eigenvalue)

    problem = AnnulusProblem(Q=float(args.Q), p=float(args.p),
                             theta=float(args.theta), a=float(args.a),
                             b=float(args.b))
    result = eigenvalue(problem, which=int(args.which), tol=float(args.tol))
    rows = [{"lambda": result.lam, "zero_count": result.zero_count,
             "endpoint_residual": result.endpoint_residual}]
    bound_ok = check_lambda1_lower_bound(problem, result, tol=float(args.tol))
    summary = {**rows[0], "lemma_lower_bound": problem.lemma_lower_bound,
               "exceeds_lower_bound": bound_ok}
    if args.eigenfunction_out:
        r = np.linspace(problem.a, problem.b, 400)
        samples = [{"r": x, "phi": v} for x, v in
                   zip(r.tolist(), result.eigenfunction.value(r).tolist())]
        with open(args.eigenfunction_out, "w", encoding="utf-8",
                  newline="") as fh:
            fh.write(render_csv(samples))
    return rows, summary, None if bound_ok else (
        "eigenvalue does not exceed the lower bound |(Q - p theta)/p|^p")


# -------------------------------------------------------------- sharpness ---

def _cmd_sharpness(args):
    from .sharpness import (improved_weight_check, is_stable, psiR_deficit,
                            sweep_quotient)

    mode = args.mode
    if mode not in ("sweep", "psi", "improved"):
        raise ParameterDomainError(f"unknown sharpness mode {mode!r}")
    if mode == "sweep":
        scenario = _build_scenario(args)
        grid = [float(t) for t in str(args.eps_grid).split(",")]
        rows_obj = sweep_quotient(scenario, grid)
        rows = [{"epsilon": r.epsilon, "quotient": r.quotient,
                 "deficit": r.deficit, "scaled_deficit": r.scaled_deficit}
                for r in rows_obj]
        return rows, {"scenario": scenario.name,
                      "sharp_constant": scenario.sharp_constant, "grid": grid,
                      "stable": is_stable([r.scaled_deficit for r in rows_obj],
                                          [r.deficit for r in rows_obj])}, None
    Q, p = float(_or(args.Q, 5.0)), float(_or(args.p, 2.0))
    if mode == "psi":
        grid = [float(t) for t in str(args.R_grid).split(",")]
        rows = psiR_deficit(Q, p, grid)
        return rows, {"Q": Q, "p": p, "grid": grid, "stable": is_stable(
            [r["deficit_times_lnR"] for r in rows])}, None
    res = improved_weight_check(Q, p, int(args.profiles), int(args.seed))
    rows = [{"index": i, "slack": s} for i, s in enumerate(res["slacks"])]
    return rows, {"Q": Q, "p": p, "min_slack": res["min_slack"]}, res["failure"]


# -------------------------------------------------------------- geometry ----

def _geometry_model(args, N: int):
    from . import geometry as geo

    n, gamma = int(_or(args.n, 1)), float(_or(args.gamma, 1.0))
    if args.model == "euclidean":
        return geo.euclidean(N)
    if args.model == "grushin":
        return geo.grushin(n, int(_or(args.k, 1)), gamma)
    if args.model == "greiner":
        return geo.greiner(n, gamma)
    if args.model == "cylindrical":
        return geo.cylindrical_split(int(_or(args.m, 2)), N)
    raise ParameterDomainError(
        "model must be euclidean | grushin | greiner | cylindrical")


def _record(model: str, check: str, estimate: float, expected: float,
            ok: bool, error_bound: float | None = None, **extra) -> dict:
    """The one row shape every geometry check reports; a one-float check has
    no error bound and keeps the std_error 0.0 of its earlier rows."""
    key = "std_error" if error_bound is None else "error_bound"
    return {"model": model, "check": check, "estimate": estimate,
            key: error_bound or 0.0, "expected": expected, "pass": bool(ok),
            **extra}


def _cmd_geometry(args):
    from . import geometry as geo

    check, seed = args.check, int(args.seed)
    theta, N = float(_or(args.theta, 1.0)), int(_or(args.N, 3))
    if check == "strip":
        q = geo.strip_quotient(theta, float(args.epsilon))
        record = _record("strip", check, q, *geo.bound_verdict(check, q, theta))
    elif check == "vandermonde":
        res = geo.vandermonde_checks(N, theta, int(args.samples), seed,
                                     float(args.epsilon))
        record = _record(
            f"vandermonde(N={N})", check, res["rayleigh_quotient"],
            res["reduced_quotient"], res["pass"], res["error_bound"],
            harmonicity_residual=res["harmonicity_residual"],
            sphere_eigvalue_residual=res["sphere_eigvalue_residual"])
    else:
        model = _geometry_model(args, N)
        if check in ("homogeneity", "orthogonality", "gradient"):
            if check == "gradient":
                rng = np.random.default_rng(seed)
                pts = rng.uniform(0.3, 1.5, size=(200, model.dims)) \
                    * rng.choice([-1.0, 1.0], size=(200, model.dims))
                err = geo.gauge_gradient_fd_error(model, pts)
            else:
                err = (geo.homogeneity_error if check == "homogeneity" else
                       geo.cylindrical_orthogonality_error)(model, seed=seed)
            record = _record(model.kind, check, err,
                             *geo.bound_verdict(check, err))
        elif check == "measure":
            res = geo.measure_homogeneity_check(
                model, float(args.alpha), float(args.R1), float(args.R2),
                int(args.samples), seed)
            record = _record(model.kind, check, res["ratio"], res["expected"],
                             res["pass"], res["error_bound"],
                             lambda_alpha=res["lambda_alpha"])
        elif check == "direct":
            from .profiles import random_profile

            scenario = _build_scenario(args)
            rng = np.random.default_rng(seed)
            interval = (scenario.pair.interval[0],
                        min(scenario.pair.interval[1], 3.0))
            res = geo.direct_rayleigh(model, scenario, random_profile(
                rng, interval), int(args.samples), seed)
            record = _record(model.kind, check, res["quotient"],
                             res["reduced_quotient"], res["pass"],
                             res["error_bound"])
        else:
            raise ParameterDomainError(
                "check must be homogeneity | gradient | measure | "
                "orthogonality | direct | strip | vandermonde")
    return [record], {"pass": record["pass"]}, None if record["pass"] else (
        f"geometry check {check} (estimate {record['estimate']} "
        f"vs expected {record['expected']})")


# -------------------------------------------------------------- rayleigh ----

def _cmd_rayleigh(args):
    from .functional import random_profile_slacks, slack_verdict

    scenario = _build_scenario(args)
    rows = random_profile_slacks(scenario, int(args.profiles), int(args.seed))
    min_slack, failure = slack_verdict(scenario, rows)
    return rows, {"scenario": scenario.name,
                  "sharp_constant": scenario.sharp_constant,
                  "min_slack": min_slack, "pass": failure is None}, failure


# -------------------------------------------------------------- catalog -----

def _cmd_catalog(args):
    rows = []
    for sc in default_catalog():
        doc = json.loads(scenario_to_json(sc))
        rows.append({"name": sc.name, "p": sc.exponents.p,
                     "theta": sc.exponents.theta, "Q": sc.exponents.Q,
                     "sharp_constant": sc.sharp_constant,
                     "maximizer": doc["maximizer"]})
    return rows, {"count": len(rows)}, None


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hardylab",
        description="Numerical verification of weighted Hardy-type "
                    "inequalities, Bessel pairs, and sharp constants.")
    sub = ap.add_subparsers(dest="command", required=True,
                            parser_class=_CommandParser)

    sp = sub.add_parser(
        "identity",
        help="sampled residuals of the p >= 2 algebraic identity",
        description="Splits |f|^p + (p-1)|g|^p - p|g|^(p-2) Re(conj(g) f) "
                    "into its two nonnegative s-integrals and reports the "
                    "reconstruction residual per sampled pair; the identity "
                    "underlies every inequality in the catalog.")
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--samples", type=int, default=1000)
    sp.add_argument("--h", type=int, default=1,
                    help="vector length (1 = scalar identity)")
    _common_flags(sp, "csv")
    sp.set_defaults(func=_cmd_identity)

    sp = sub.add_parser(
        "bessel",
        help="Bessel-pair certificate for a catalog scenario",
        description="Certifies the scenario's closed-form phi on fixed "
                    "geometric intervals [a, b] of [r0, r1]: phi > 0, and on "
                    "each interval the ODE integrated once (the flux "
                    "identity) and phi(b) - phi(a) = int phi' hold within a "
                    "fixed multiple of their error budgets; for "
                    "improved_weight the auxiliary exp(-r) pair is "
                    "certified. The residual column is the relative flux "
                    "residual of the interval holding r.")
    _add_scenario_args(sp)
    sp.add_argument("--r0", type=float)
    sp.add_argument("--r1", type=float)
    _common_flags(sp, "csv")
    sp.set_defaults(func=_cmd_bessel)

    sp = sub.add_parser(
        "eig",
        help="annulus p-Laplacian eigenvalues from the half-period",
        description="The n-th (--which) eigenvalue of the radial p-Laplacian "
                    "on a < r < b with zero boundary values; for p = 2 it "
                    "matches ((Q-2 theta)/2)^2 + n^2 (pi/ln(b/a))^2 and it "
                    "always exceeds |(Q-p theta)/p|^p.")
    sp.add_argument("--Q", type=float, default=3.0)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--theta", type=float, default=1.0)
    sp.add_argument("--a", type=float, default=1.0)
    sp.add_argument("--b", type=float, default=math.e)
    sp.add_argument("--tol", type=float, default=1e-8,
                    help="relative tolerance on lambda, in (0, 1e-6]")
    sp.add_argument("--which", type=int, default=1, help="n >= 1")
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
    sp.add_argument("--mode", choices=("sweep", "psi", "improved"),
                    default="sweep")
    sp.add_argument("--eps-grid", dest="eps_grid", default="1e-2,1e-3,1e-4")
    sp.add_argument("--R-grid", dest="R_grid", default="10,100,1000")
    sp.add_argument("--profiles", type=int, default=100)
    _common_flags(sp, "csv")
    sp.set_defaults(func=_cmd_sharpness)

    sp = sub.add_parser(
        "geometry",
        help="gauge-model checks (homogeneity, gradients, measure scaling, "
             "strip, ordered-sector)",
        description="Verifies the closed-form gauge gradients against finite "
                    "differences, the gauge-ball scaling law "
                    "Phi(R) = lambda_alpha R^Q by quadrature, the strip "
                    "quotient bound ((2 theta-1)/2)^2, the ordered-sector "
                    "quotient at --epsilon against its 1-D reduction (which "
                    "tends to ((N^2-2 theta)/2)^2 + N(N-1)(theta-1)), and the "
                    "agreement of the direct quotient with its 1-D reduction.")
    sp.add_argument("--model",
                    choices=("euclidean", "grushin", "greiner", "cylindrical"))
    sp.add_argument("--check",
                    choices=("homogeneity", "gradient", "measure",
                             "orthogonality", "direct", "strip", "vandermonde"))
    sp.add_argument("--n", type=int)
    sp.add_argument("--k", type=int)
    sp.add_argument("--gamma", type=float)
    sp.add_argument("--R1", type=float, default=1.0)
    sp.add_argument("--R2", type=float, default=2.0)
    sp.add_argument("--samples", type=int, default=10 ** 6,
                    help="ignored: every geometry check is deterministic")
    sp.add_argument("--epsilon", type=float, default=1e-3)
    _add_scenario_args(sp)
    sp.set_defaults(alpha=2.0)   # --alpha doubles as the measure exponent
    _common_flags(sp, "json")
    sp.set_defaults(func=_cmd_geometry)

    sp = sub.add_parser(
        "rayleigh",
        help="random-profile inequality sampling",
        description="Draws seeded random bump profiles and checks the reduced "
                    "quotient against the scenario's sharp constant; every "
                    "quotient must clear it (up to 1e-8 relative).")
    _add_scenario_args(sp)
    sp.add_argument("--profiles", type=int, default=200)
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


def _public(args: argparse.Namespace) -> dict:
    return {k: v for k, v in sorted(vars(args).items())
            if v is not None and k not in ("config", "func")}


def run(argv=None) -> int:
    # a file that fails while parsing is the config; after it, an output file
    stage = "config"
    try:
        args = build_parser().parse_args(argv)
        stage = "output"
        rows, summary, failure = args.func(args)
        emit_report(rows, args.format, args.out, _public(args), summary)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"{stage} error: {exc}", file=sys.stderr)
        return 2
    except CheckFailure as exc:
        failure = exc
    except ValueError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    if failure is None:
        return 0
    print(f"FAIL: {failure}", file=sys.stderr)
    return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
