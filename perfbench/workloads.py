"""The four workloads: seeded inputs, jobs and the oracle each job must meet.

A workload's `setup(seed, scale, scratch, tracer)` imports the hardylab
modules it calls and builds every input from the seed; it returns the list of
jobs of one pass. A job's `run()` is the timed call into the package; its `check(out)`
runs afterwards, untimed and untraced, against an oracle that does not share
the package's fast path, and returns an empty string or the failure reason.
`digest(out)` lets the runner demand identical outputs from every pass.

The package is always called through its module attribute at call time, so
the tracing wrappers, when installed, see every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import pace

# package default tolerances; a change that meets a metric by loosening one
# of these fails the checks below
RESIDUAL_TOL = 1e-9           # identity residual <= 1e-9 (1 + |rhs|)
EIG_REL_TOL = 1e-8            # p = 2 eigenvalue against the closed form
SLACK_FLOOR = -1e-8           # random-profile normalized slack
IMPROVED_FLOOR = -1e-9        # improved-weight normalized slack
CERT_TOL = 1e-6               # Bessel certificate residuals (the CLI verdict)


@dataclass
class Job:
    name: str
    items: int
    run: Callable
    check: Callable
    digest: Callable = field(default=lambda out: _digest(repr(out)))


def _digest(text) -> str:
    if isinstance(text, str):
        text = text.encode()
    return hashlib.sha256(text).hexdigest()


def _fail(cond: bool, reason: str) -> str:
    return "" if cond else reason


class Workload:
    name = ""
    min_passes = 1          # passes a timed run makes even past its seconds
    reference = "interpreter"  # the pace.py reference its job times use
    subprocess_jobs = False  # each job is its own process (nothing to warm)
    traced = False          # set by the worker for the traced pass
    span_files: tuple = ()  # spans written by traced child processes
    readings: dict = {}     # check results reported beside the layer metrics


# ---------------------------------------------------------------- identity --

def exact_lhs(p, mu, nu) -> float:
    """|mu|^p + (p-1)|nu|^p - p |nu|^(p-2) nu.mu in 40-digit arithmetic."""
    import mpmath

    with mpmath.workdps(40):
        mu = [mpmath.mpf(float(x)) for x in mu]
        nu = [mpmath.mpf(float(x)) for x in nu]
        a = mpmath.sqrt(sum(x * x for x in mu))
        b = mpmath.sqrt(sum(x * x for x in nu))
        dot = sum(x * y for x, y in zip(mu, nu))
        return float(a ** p + (p - 1) * b ** p - p * b ** (p - 2) * dot)


class IdentityBulk(Workload):
    """Graded-panel identity kernel on seeded pairs; no quadrature, ODE or MC.

    Each batch is split at the adversarial slice that `sample_complex_pairs`
    puts first (10% near-collinear pairs), and the two slices are separate
    kernel calls, so generic and adversarial cost are traced apart."""

    name = "identity_bulk"
    min_passes = 5
    reference = "arrays"

    def setup(self, seed, scale, scratch, tracer):
        import numpy as np
        from hardylab import identities

        self.np, self.ident, self.tracer = np, identities, tracer
        self.readings = {"identities.max_residual_over_tol": 0.0,
                         "identities.oracle_max_gap": 0.0}
        pairs, batches = (2000, 4) if scale == "full" else (100, 1)
        n_adv = pairs // 10     # sample_complex_pairs's adversarial slice
        rng = np.random.default_rng(seed)
        combos = [("scalar", 2.0), ("scalar", 2.5), ("scalar", 3.0),
                  ("scalar", 4.0), ("vector", 3.0)]
        jobs = []
        for kind, p in combos:
            for b in range(batches):
                if kind == "scalar":
                    f, g = identities.sample_complex_pairs(rng, pairs)
                else:
                    # h = 3; the adversarial rows take one scalar relation
                    # g = r f of the first component for all three, so the
                    # whole vector is near-collinear (xi ~ zeta, ~ -zeta or ~ 0)
                    parts = [identities.sample_complex_pairs(rng, pairs)
                             for _ in range(3)]
                    f = np.stack([fp for fp, _ in parts], axis=1)
                    g = np.stack([gp for _, gp in parts], axis=1)
                    fs, gs = parts[0]
                    g[:n_adv] = f[:n_adv] * (gs[:n_adv] / fs[:n_adv])[:, None]
                jobs.append(self._job(f"{kind}_p{p:g}_{b}", kind, p, f, g,
                                      n_adv))
        return jobs

    def _job(self, name, kind, p, f, g, n_adv):
        np, tracer = self.np, self.tracer

        def run():
            kernel = (self.ident.scalar_identity_batch if kind == "scalar"
                      else self.ident.vector_identity_batch)
            with tracer.span("bench.identity.adversarial"):
                adv = kernel(p, f[:n_adv], g[:n_adv])
            with tracer.span("bench.identity.generic"):
                gen = kernel(p, f[n_adv:], g[n_adv:])
            return {k: np.concatenate([adv[k], gen[k]]) for k in adv}

        def check(out):
            worst = float(np.max(out["residual"]
                                 / (RESIDUAL_TOL * (1.0 + np.abs(out["rhs_closed"])))))
            exact_gap = taylor_gap = 0.0
            # the first adversarial and the first generic pair against the
            # identity's left side in 40-digit arithmetic; the generic one also
            # against the package's Taylor-remainder oracle, whose adaptive
            # t-integral converges falsely on near-antipodal pairs
            for i in (0, n_adv):
                fi, gi = np.atleast_1d(f[i]), np.atleast_1d(g[i])
                mu = np.column_stack([fi.real, fi.imag]).ravel()
                nu = np.column_stack([gi.real, gi.imag]).ravel()
                got = out["w_term"][i] + out["wtilde_term"][i]
                exact = exact_lhs(p, mu, nu)
                exact_gap = max(exact_gap, abs(got - exact)
                                / (RESIDUAL_TOL * (1.0 + abs(exact))))
                if i == n_adv:
                    ref = self.ident.realified_identity_oracle(p, mu, nu)
                    taylor_gap = abs(got - ref["rhs"]) \
                        / (RESIDUAL_TOL * (1.0 + abs(ref["lhs"])))
            r = self.readings
            r["identities.max_residual_over_tol"] = max(
                r["identities.max_residual_over_tol"], worst)
            r["identities.oracle_max_gap"] = max(r["identities.oracle_max_gap"],
                                                 taylor_gap)
            return (_fail(worst <= 1.0, f"residual/tol {worst:.3g} > 1")
                    or _fail(exact_gap <= 1.0, f"exact gap {exact_gap:.3g} > 1")
                    or _fail(taylor_gap <= 1.0, f"oracle gap {taylor_gap:.3g} > 1"))

        def digest(out):
            return _digest(b"".join(out[k].tobytes() for k in sorted(out)))

        return Job(name, len(f), run, check, digest)


# ------------------------------------------------------ profile quadrature --

PROFILE_FAMILIES = [
    ("power", dict(Q=5.0, p=2.0, theta=1.0)),
    ("power", dict(Q=5.0, p=3.0, theta=1.0)),
    ("gaussian_b", dict(p=2.0, theta=1.0, alpha=2.0, beta=2.0, Q=5.0)),
    ("log_radial", dict(p=2.0, theta=0.0, R=1.0)),
    ("annulus", dict(Q=3.0, p=2.0, theta=1.0, a=1.0, b=math.e)),
]
SWEEP_FAMILIES = [
    ("power", dict(Q=5.0, p=2.0, theta=1.0)),
    ("power", dict(Q=5.0, p=3.0, theta=1.0)),
    ("log_radial", dict(p=2.0, theta=0.0, R=1.0)),
    ("gaussian_b", dict(p=2.0, theta=1.0, alpha=2.0, beta=2.0, Q=5.0)),
]


class ProfileQuadrature(Workload):
    """Many small adaptive integrals (random profiles) beside a few deep ones
    (cut-off sweeps to eps = 1e-8, psi_R deficits to R = 1e10).

    Profile jobs are large enough (40 profiles) that their cost, which depends
    on the random shapes, varies little from seed to seed; the sweeps of all
    families form one job and the psi_R deficits another, so the median job
    lies inside the profile jobs."""

    name = "profile_quadrature"
    min_passes = 6

    def setup(self, seed, scale, scratch, tracer):
        from hardylab import functional, scenarios, sharpness

        self.fn, self.sh = functional, sharpness
        rng = random.Random(seed)
        full = scale == "full"
        profiles, repeats, depth = (40, 2, 7) if full else (3, 1, 2)
        jobs = []
        for name, kw in PROFILE_FAMILIES:
            sc = scenarios.scenario_catalog(name, **kw)
            for k in range(repeats):
                jobs.append(self._profiles(f"rps_{name}_p{kw['p']:g}_{k}", sc,
                                           profiles, rng.randrange(1 << 31)))
        for p in (2.0, 3.0)[:repeats]:
            jobs.append(self._improved(f"improved_p{p:g}", p, profiles,
                                       rng.randrange(1 << 31)))
        sweeps = [(scenarios.scenario_catalog(name, **kw),
                   [10.0 ** -(2 + k + 0.3 * rng.random()) for k in range(depth)])
                  for name, kw in SWEEP_FAMILIES[:2 * repeats]]
        jobs.append(self._sweeps("sweeps", sweeps))
        psi = [(p, [10.0 ** (1 + 1.5 * k + 0.3 * rng.random())
                    for k in range(depth)]) for p in (2.0, 3.0)[:repeats]]
        jobs.append(self._psi("psi", psi))
        return jobs

    def _profiles(self, name, sc, count, seed):
        c = sc.sharp_constant

        def check(rows):
            worst = min(r["slack"] for r in rows)
            low = [r for r in rows if math.isfinite(r["quotient"])
                   and r["quotient"] < c * (1.0 - 1e-8)]
            return (_fail(worst >= SLACK_FLOOR, f"min slack {worst:.3g}")
                    or _fail(not low, f"quotient below the sharp constant {c}"))

        return Job(name, count,
                   lambda: self.fn.random_profile_slacks(sc, count, seed), check)

    def _improved(self, name, p, count, seed):
        def check(res):
            return _fail(res["min_slack"] >= IMPROVED_FLOOR,
                         f"min slack {res['min_slack']:.3g}")

        return Job(name, count,
                   lambda: self.sh.improved_weight_check(5.0, p, count, seed),
                   check)

    def _sweeps(self, name, cases):
        def check(sweeps):
            for (sc, _), rows in zip(cases, sweeps):
                d = [r.deficit for r in rows]
                s = [r.scaled_deficit for r in rows]
                if not (all(x > 0 for x in d)
                        and all(b < a for a, b in zip(d, d[1:]))
                        and max(s) <= 2.0 * min(s)):
                    return (f"{sc.name}: deficits not positive, decreasing "
                            "and of stable scale")
            return ""

        return Job(name, sum(len(grid) for _, grid in cases),
                   lambda: [self.sh.sweep_quotient(sc, grid)
                            for sc, grid in cases], check)

    def _psi(self, name, cases):
        def check(deficits):
            for (p, _), rows in zip(cases, deficits):
                s = [r["deficit_times_lnR"] for r in rows]
                if not (min(r["deficit"] for r in rows) > 0
                        and max(s) <= 2.0 * min(s)):
                    return f"p={p:g}: deficit * ln R not positive and stable"
            return ""

        return Job(name, sum(len(grid) for _, grid in cases),
                   lambda: [self.sh.psiR_deficit(5.0, p, grid)
                            for p, grid in cases], check)


# --------------------------------------------------------------- radial ODE --

# base certificate intervals, those of the package's certificate tests where
# it has one; the seed only shrinks them, because the certificate's
# finite-difference residual exceeds its 1e-6 verdict beyond them (gaussian_a
# at r1 ~ 3.7 reads 1.5e-5). The antisymmetric scenario is left out: its
# numerator carries a zero-order term the flux ODE does not model, so its
# certificate fails on every interval.
CERT_INTERVALS = {
    "power": (0.1, 10.0), "log_radial": (0.01, 0.9),
    "log_cylindrical": (0.01, 0.9), "gaussian_a": (0.5, 3.0),
    "gaussian_b": (0.2, 4.0), "annulus": (1.1, 2.5), "cylindrical": (0.1, 5.0),
    "strip": (0.1, 5.0), "improved_weight": (0.1, 5.0),
}


def annulus_lambda_p2(Q, theta, a, b, which):
    """n-th eigenvalue for p = 2: ((Q - 2 theta)/2)^2 + (n pi / ln(b/a))^2."""
    return ((Q - 2.0 * theta) / 2.0) ** 2 + (which * math.pi / math.log(b / a)) ** 2


class RadialODE(Workload):
    """Annulus eigenvalues by shooting and Bessel-pair certificates: the
    solve_ivp right-hand sides do the work; no quadrature or identities."""

    name = "radial_ode"
    min_passes = 3

    def setup(self, seed, scale, scratch, tracer):
        from hardylab import besselpair, scenarios, spectral

        self.sp, self.bp = spectral, besselpair
        rng = random.Random(seed)
        full = scale == "full"
        jobs = []
        grid = ([(p, w, b) for p in (2.0, 3.0, 4.0) for w in (1, 2)
                 for b in (2.0, math.e, 4.0)] if full
                else [(2.0, 1, math.e), (3.0, 1, 2.0)])
        for p, which, b0 in grid:
            b = b0 * rng.uniform(0.97, 1.03)
            problem = spectral.AnnulusProblem(Q=5.0, p=p, theta=1.0, a=1.0, b=b)
            jobs.append(self._eig(f"eig_p{p:g}_w{which}_b{b0:.3g}", problem,
                                  which))
        catalog = [sc for sc in scenarios.default_catalog()
                   if sc.name in CERT_INTERVALS]
        for k in range(3 if full else 1):
            for sc in catalog if full else catalog[:2]:
                r0, r1 = CERT_INTERVALS[sc.name]
                lo = sc.pair.interval[0]
                r0 = lo + (r0 - lo) * rng.uniform(1.0, 1.25)
                r1 *= rng.uniform(0.85, 1.0)
                jobs.append(self._cert(f"cert_{sc.name}_{k}", sc, (r0, r1)))
        return jobs

    def _eig(self, name, problem, which):
        def check(res):
            reason = (_fail(res.lam > problem.lemma_lower_bound,
                            f"lambda {res.lam} below the lemma bound")
                      or _fail(res.zero_count == which - 1,
                               f"{res.zero_count} interior zeros"))
            if problem.p == 2.0 and not reason:
                ref = annulus_lambda_p2(problem.Q, problem.theta, problem.a,
                                        problem.b, which)
                err = abs(res.lam - ref) / ref
                reason = _fail(err <= EIG_REL_TOL, f"rel error {err:.2e}")
            return reason

        return Job(name, 1, lambda: self.sp.eigenvalue(problem, which=which),
                   check, digest=lambda res: _digest(repr(
                       (res.lam, res.zero_count, res.endpoint_residual))))

    def _cert(self, name, sc, interval):
        def check(cert):
            return _fail(cert.is_positive
                         and cert.max_ode_residual <= CERT_TOL
                         and cert.max_closed_form_error <= CERT_TOL,
                         f"certificate failed: {cert}")

        return Job(name, 1, lambda: self.bp.verify_bessel_pair(sc, interval),
                   check)


# ---------------------------------------------------------------- CLI cold --

class CliCold(Workload):
    """The README command list, each a cold `python -m hardylab.cli` child
    writing its report to a scratch file. Traced passes go through
    launcher.py, which installs the wrappers and then calls cli.run."""

    name = "cli_cold"
    min_passes = 2      # report bytes are compared across passes
    subprocess_jobs = True
    # a cold start is mostly mapping shared libraries and faulting in pages
    reference = "arrays"

    def setup(self, seed, scale, scratch, tracer):
        import hardylab.cli  # noqa: F401  (the cold import is the set-up)

        self.scratch, self.span_files = scratch, []
        self.readings = {"identities.max_residual_over_tol": 0.0}
        rng = random.Random(seed)
        seeds = [rng.randrange(1 << 31) for _ in range(5)]
        r0, r1 = rng.uniform(0.9, 1.1), rng.uniform(9.0, 11.0)
        b1, b2 = math.e * rng.uniform(0.95, 1.05), 2.0 * rng.uniform(0.97, 1.03)
        full = scale == "full"
        mc, vd, prof, rows, ident = ((10 ** 7, 10 ** 6, 100, 200, 10000) if full
                                     else (10 ** 5, 10 ** 5, 4, 4, 200))
        phi2 = os.path.join(scratch, "phi2.csv")
        specs = [
            ("catalog", [], self._count(10)),
            ("identity", ["--p", "2.5", "--samples", str(ident),
                          "--seed", str(seeds[0])], self._identity),
            ("bessel", ["--scenario", "power", "--Q", "5", "--p", "2",
                        "--theta", "1", "--r0", repr(r0), "--r1", repr(r1)],
             self._key("pass")),
            ("eig_p2", ["--Q", "3", "--p", "2", "--theta", "1", "--a", "1",
                        "--b", repr(b1)], self._eig_p2(3.0, 1.0, 1.0, b1)),
            ("eig_p3_which2", ["--Q", "5", "--p", "3", "--theta", "1", "--a",
                               "1", "--b", repr(b2), "--which", "2",
                               "--eigenfunction-out", phi2], self._eig_p3),
            ("sharpness_sweep", ["--scenario", "power", "--Q", "5", "--p", "2",
                                 "--theta", "1", "--eps-grid",
                                 "1e-2,1e-3,1e-4"], self._key("stable")),
            ("sharpness_psi", ["--mode", "psi", "--Q", "5", "--p", "2",
                               "--R-grid", "10,100,1000"], self._key("stable")),
            ("sharpness_improved", ["--mode", "improved", "--Q", "5", "--p",
                                    "2", "--profiles", str(prof), "--seed",
                                    str(seeds[1])], self._improved),
            ("geometry_measure", ["--model", "grushin", "--n", "1", "--k", "1",
                                  "--gamma", "1", "--check", "measure",
                                  "--samples", str(mc), "--seed", str(seeds[2])],
             self._geometry),
            ("geometry_vandermonde", ["--check", "vandermonde", "--N", "3",
                                      "--theta", "1", "--samples", str(vd),
                                      "--seed", str(seeds[3])], self._geometry),
            ("geometry_strip", ["--check", "strip", "--theta", "1",
                                "--epsilon", "1e-3"], self._geometry),
            ("rayleigh", ["--scenario", "gaussian_b", "--Q", "5", "--p", "2",
                          "--theta", "1", "--alpha", "2", "--beta", "2",
                          "--profiles", str(rows), "--seed", str(seeds[4])],
             self._key("pass")),
        ]
        if not full:
            keep = {"identity", "bessel", "eig_p2", "sharpness_sweep",
                    "geometry_measure", "rayleigh"}
            specs = [s for s in specs if s[0] in keep]
        jobs = []
        for name, args, verdict in specs:
            sub = name.split("_")[0]
            out = os.path.join(scratch, f"{name}.out")
            extra = [phi2] if "--eigenfunction-out" in args else []
            jobs.append(self._job(name, [sub, *args, "--out", out],
                                  [out, *extra], verdict))
        return jobs

    def _job(self, name, argv, outputs, verdict):
        here = os.path.dirname(os.path.abspath(__file__))

        def run():
            for path in outputs:
                if os.path.exists(path):
                    os.remove(path)
            if self.traced:
                spans = os.path.join(self.scratch, f"spans{len(self.span_files)}.json")
                self.span_files.append(spans)
                cmd = [sys.executable, os.path.join(here, "launcher.py"),
                       "--spans", spans, "--job", name, "--", *argv]
            else:
                cmd = [sys.executable, "-m", "hardylab.cli", *argv]
            proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
            blobs = []
            for path in outputs:
                if os.path.exists(path):
                    with open(path, "rb") as fh:
                        blobs.append(fh.read())
                else:
                    blobs.append(b"")
            return proc.returncode, proc.stderr, blobs

        def check(out):
            code, stderr, blobs = out
            if code != 0:
                return f"exit code {code}: {stderr.strip()[-300:]}"
            return verdict(_summary(blobs[0], stderr))

        return Job(name, 1, run, check,
                   digest=lambda out: _digest(b"".join(out[2])))

    # verdicts on the report summary -----------------------------------------
    @staticmethod
    def _key(key):
        return lambda s: _fail(s.get(key) is True, f"summary {key} is {s.get(key)}")

    @staticmethod
    def _count(n):
        return lambda s: _fail(s.get("count") == n, f"count {s.get('count')}")

    def _identity(self, s):
        worst = s.get("max_residual_over_tolerance", math.inf)
        r = self.readings
        r["identities.max_residual_over_tol"] = max(
            r["identities.max_residual_over_tol"], worst)
        return _fail(s.get("pass") is True and worst <= 1.0,
                     f"residual/tol {worst}")

    @staticmethod
    def _eig_p2(Q, theta, a, b):
        ref = annulus_lambda_p2(Q, theta, a, b, 1)

        def verdict(s):
            err = abs(s["lambda"] - ref) / ref
            return (_fail(s.get("exceeds_lower_bound") is True, "below bound")
                    or _fail(err <= EIG_REL_TOL, f"rel error {err:.2e}"))
        return verdict

    @staticmethod
    def _eig_p3(s):
        return (_fail(s.get("exceeds_lower_bound") is True, "below bound")
                or _fail(s.get("zero_count") == 1,
                         f"{s.get('zero_count')} interior zeros"))

    @staticmethod
    def _improved(s):
        return _fail(s.get("min_slack", -math.inf) >= IMPROVED_FLOOR,
                     f"min slack {s.get('min_slack')}")

    @staticmethod
    def _geometry(s):
        # an inconclusive Monte-Carlo result exits 0 and is not a failure
        return _fail(s.get("pass") is True or s.get("inconclusive") is True,
                     f"geometry check failed: {s}")


def _summary(report: bytes, stderr: str) -> dict:
    """The report summary: inside a JSON report, or on the stderr config line
    that CSV reports print."""
    text = report.decode()
    if text.startswith("{"):
        doc = json.loads(text)
        summary = dict(doc["summary"])
        if doc.get("rows") and "inconclusive" in doc["rows"][0]:
            summary["inconclusive"] = doc["rows"][0]["inconclusive"]
        return summary
    for line in reversed(stderr.splitlines()):
        if line.startswith("{"):
            return json.loads(line)["summary"]
    return {}


WORKLOADS = {w.name: w for w in (CliCold, IdentityBulk, ProfileQuadrature,
                                 RadialODE)}


def run_pass(jobs, tracer, records, digests, reference):
    """Run every job once, in order (a closed loop from one process). Each
    record carries the mean reference time measured just before and just
    after its job."""
    ref_before = pace.reference_s(reference)
    for job in jobs:
        tracer.job = job.name
        t0 = time.perf_counter()
        try:
            with tracer.span("bench.job"):
                out = job.run()
            err = ""
        except Exception as exc:     # a job that raises is a failed job
            out, err = None, f"raised {type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        if not err:
            with tracer.paused():
                try:
                    err = job.check(out)
                    d = job.digest(out)
                    if digests.setdefault(job.name, d) != d:
                        err = err or "output differs from the first pass"
                except Exception as exc:
                    err = f"check raised {type(exc).__name__}: {exc}"
        ref_after = pace.reference_s(reference)
        records.append((job.name, latency, job.items, err,
                        0.5 * (ref_before + ref_after)))
        ref_before = ref_after
