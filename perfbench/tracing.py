"""Span recording attached to hardylab from outside the package.

`install` replaces public entry points with wrappers that record spans. Each
wrapper is bound in the defining module and in every loaded hardylab module
that bound the same function object with ``from .x import y``; an import made
later reads the defining module and so gets the wrapper too. A name that a
refactor captures some other way keeps its original and its counters stay at
zero, which the counter-coverage test in this directory catches.

Spans stay in memory (`Recorder.spans`) and are written out by the caller.
Integrand calls are not spans: they are summed into the enclosing quadrature
span, because a single pass makes hundreds of thousands of them.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from contextlib import contextmanager

QUAD = "quadrature.integrate_adaptive"
ODE = "ode.solve_ivp"


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "attrs")

    def __init__(self, name, start, parent, job, attrs):
        self.name, self.start, self.end = name, start, start
        self.parent, self.job, self.attrs = parent, job, attrs

    def to_json(self):
        return [self.name, self.start, self.end, self.parent, self.job,
                self.attrs]


class Recorder:
    """In-memory span store. Calls are sequential (no thread pool runs while
    benchmarking), so one stack of open spans gives every span its parent."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.enabled = False
        self.job = None

    def open(self, name, attrs=None) -> Span:
        parent = self.stack[-1] if self.stack else None
        span = Span(name, time.perf_counter(), parent, self.job, attrs or {})
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()

    def top(self):
        return self.spans[self.stack[-1]] if self.stack else None

    @contextmanager
    def span(self, name, **attrs):
        if not self.enabled:
            yield None
            return
        s = self.open(name, attrs)
        try:
            yield s
        finally:
            self.close(s)

    @contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording them."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def dump(self):
        return [s.to_json() for s in self.spans]


class NullTracer:
    """Stand-in for timed runs: no wrappers are installed at all."""

    job = None

    @contextmanager
    def span(self, name, **attrs):
        yield None

    @contextmanager
    def paused(self):
        yield


def _arg(sig, args, kwargs, name):
    return sig.bind(*args, **kwargs).arguments.get(name)


def _plain(rec, name, fn, before=None, after=None):
    sig = inspect.signature(fn)

    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        span = rec.open(name, before(sig, args, kwargs) if before else {})
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            span.attrs["raised"] = True
            raise
        finally:
            rec.close(span)
        if after:
            span.attrs.update(after(sig, args, kwargs, out))
        return out

    wrapper.__wrapped__ = fn
    return wrapper


def _quadrature(rec, fn):
    def wrapper(f, a, b, *args, **kwargs):
        if not rec.enabled:
            return fn(f, a, b, *args, **kwargs)
        top = rec.top()
        if top is not None and top.name == QUAD and not top.attrs["in_integrand"]:
            # the improper-limit substitution calls the function on itself;
            # only the outermost call counts
            return fn(f, a, b, *args, **kwargs)
        span = rec.open(QUAD, {"integrand_calls": 0, "points": 0,
                               "integrand_s": 0.0, "in_integrand": False})
        attrs = span.attrs

        def integrand(x):
            attrs["in_integrand"] = True
            t0 = time.perf_counter()
            try:
                return f(x)
            finally:
                attrs["integrand_s"] += time.perf_counter() - t0
                attrs["integrand_calls"] += 1
                attrs["points"] += int(getattr(x, "size", 1))
                attrs["in_integrand"] = False

        try:
            est = fn(integrand, a, b, *args, **kwargs)
        except BaseException:
            attrs["failed"] = True
            raise
        finally:
            rec.close(span)
        attrs["subdivisions"] = int(est.subdivisions)
        return est

    wrapper.__wrapped__ = fn
    return wrapper


def _pairs(sig, args, kwargs):
    return {"pairs": len(args[1])}


def _samples(param):
    return lambda sig, args, kwargs: {"samples": int(_arg(sig, args, kwargs, param))}


def _nfev(sig, args, kwargs, out):
    return {"nfev": int(out.nfev)}


def _report_bytes(sig, args, kwargs, out):
    path = _arg(sig, args, kwargs, "path")
    return {"bytes": os.path.getsize(path) if path else 0}


# (defining module, public name, wrapper factory)
TARGETS = [
    ("hardylab.quadrature", "integrate_adaptive", _quadrature),
    ("hardylab.functional", "reduce_radial_functional", None),
    ("hardylab.functional", "random_profile_slacks", None),
    ("hardylab.sharpness", "sweep_quotient", None),
    ("hardylab.sharpness", "psiR_deficit", None),
    ("hardylab.sharpness", "improved_weight_check", None),
    ("hardylab.identities", "scalar_identity_batch", dict(before=_pairs)),
    ("hardylab.identities", "vector_identity_batch", dict(before=_pairs)),
    ("hardylab.identities", "rhs_closed_form", dict(before=_pairs)),
    ("hardylab.identities", "realified_identity_oracle", None),
    ("hardylab.spectral", "shoot", None),
    ("hardylab.spectral", "eigenvalue", None),
    ("hardylab.besselpair", "verify_bessel_pair", None),
    ("hardylab.geometry", "measure_homogeneity_check",
     dict(before=_samples("samples"))),
    ("hardylab.geometry", "vandermonde_checks",
     dict(before=_samples("mc_samples"))),
    ("hardylab.geometry", "direct_rayleigh", dict(before=_samples("mc_samples"))),
    ("hardylab.reports", "emit_report", dict(after=_report_bytes)),
]


def _rebind(module, attr, wrapper) -> None:
    orig = getattr(module, attr)
    setattr(module, attr, wrapper)
    for name, mod in list(sys.modules.items()):
        if (name == "hardylab" or name.startswith("hardylab.")) \
                and mod is not None and mod.__dict__.get(attr) is orig:
            setattr(mod, attr, wrapper)


def install(rec: Recorder) -> None:
    """Wrap every target. Call it before importing hardylab: the ODE engine is
    patched in scipy first, so a module-level ``from scipy.integrate import
    solve_ivp`` in hardylab binds the wrapper."""
    import scipy.integrate

    _rebind(scipy.integrate, "solve_ivp",
            _plain(rec, ODE, scipy.integrate.solve_ivp, after=_nfev))
    for modname, attr, factory in TARGETS:
        module = importlib.import_module(modname)
        fn = getattr(module, attr)
        short = f"{modname.rsplit('.', 1)[1]}.{attr}"
        if callable(factory):
            wrapper = factory(rec, fn)
        else:
            wrapper = _plain(rec, short, fn, **(factory or {}))
        _rebind(module, attr, wrapper)


# name -> (unit, better); the per-layer metrics a traced run reports
PER_LAYER = {
    "import.cli_s": ("s", "lower"),
    "import.scipy_integrate_s": ("s", "lower"),
    "reports.emit_s": ("s", "lower"),
    "reports.bytes": ("bytes", "lower"),
    "identities.scalar_ns_per_pair": ("ns", "lower"),
    "identities.vector_ns_per_pair": ("ns", "lower"),
    "identities.generic_ns_per_pair": ("ns", "lower"),
    "identities.adversarial_ns_per_pair": ("ns", "lower"),
    "identities.rhs_closed_ns_per_pair": ("ns", "lower"),
    "identities.max_residual_over_tol": ("1", "lower"),
    "identities.oracle_max_gap": ("1", "lower"),
    "quadrature.calls": ("count", "lower"),
    "quadrature.integrand_calls": ("count", "lower"),
    "quadrature.points": ("count", "lower"),
    "quadrature.subdivisions": ("count", "lower"),
    "quadrature.sweeps_per_integral": ("count", "lower"),
    "quadrature.self_s": ("s", "lower"),
    "quadrature.failures": ("count", "lower"),
    "integrand.s": ("s", "lower"),
    "integrand.points_per_s": ("1/s", "higher"),
    "functional.reduce_calls": ("count", "lower"),
    "functional.s_per_quotient": ("s", "lower"),
    "sharpness.sweep_s": ("s", "lower"),
    "sharpness.psi_s": ("s", "lower"),
    "sharpness.improved_s": ("s", "lower"),
    "spectral.shots_per_eig": ("count", "lower"),
    "spectral.nfev_per_eig": ("count", "lower"),
    "spectral.s_per_eig": ("s", "lower"),
    "besselpair.nfev_per_cert": ("count", "lower"),
    "besselpair.s_per_cert": ("s", "lower"),
    "ode.calls": ("count", "lower"),
    "ode.nfev": ("count", "lower"),
    "ode.s": ("s", "lower"),
    "ode.us_per_rhs": ("us", "lower"),
    "geometry.mc_samples_per_s": ("1/s", "higher"),
    "geometry.mc_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_share": ("1", "lower"),
}

EIG = "spectral.eigenvalue"
CERT = "besselpair.verify_bessel_pair"
MC = ("geometry.measure_homogeneity_check", "geometry.vandermonde_checks",
      "geometry.direct_rayleigh")
KERNELS = ("identities.scalar_identity_batch", "identities.vector_identity_batch")


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def summarize(groups) -> dict:
    """Per-layer metrics from span lists (one list per recording process;
    parent indices are local to their list)."""
    t = {}      # total seconds by span name
    n = {}      # span count by name
    a = dict(quad_integrand_calls=0, quad_points=0, quad_subdiv=0,
             quad_failures=0, quad_integrand_s=0.0, quad_self_s=0.0,
             ode_nfev=0, eig_shots=0, eig_nfev=0, cert_nfev=0,
             mc_samples=0, report_bytes=0, scalar_pairs=0, vector_pairs=0,
             rhs_pairs=0)
    slice_s = {"generic": 0.0, "adversarial": 0.0}
    slice_pairs = {"generic": 0, "adversarial": 0}
    for spans in groups:
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] is not None:
                child[s[3]] += dur[i]

        def owner(i, names):
            j = spans[i][3]
            while j is not None:
                if spans[j][0] in names:
                    return spans[j][0]
                j = spans[j][3]
            return None

        for i, (name, _, _, parent, _, attrs) in enumerate(spans):
            t[name] = t.get(name, 0.0) + dur[i]
            n[name] = n.get(name, 0) + 1
            if name == QUAD:
                a["quad_integrand_calls"] += attrs["integrand_calls"]
                a["quad_points"] += attrs["points"]
                a["quad_subdiv"] += attrs.get("subdivisions", 0)
                a["quad_failures"] += bool(attrs.get("failed"))
                a["quad_integrand_s"] += attrs["integrand_s"]
                a["quad_self_s"] += dur[i] - attrs["integrand_s"] - child[i]
            elif name == ODE:
                nfev = attrs.get("nfev", 0)
                a["ode_nfev"] += nfev
                own = owner(i, (EIG, CERT))
                if own == EIG:
                    a["eig_nfev"] += nfev
                elif own == CERT:
                    a["cert_nfev"] += nfev
            elif name == "spectral.shoot":
                a["eig_shots"] += owner(i, (EIG,)) is not None
            elif name in MC:
                a["mc_samples"] += attrs["samples"]
            elif name == "reports.emit_report":
                a["report_bytes"] += attrs.get("bytes", 0)
            elif name == "identities.rhs_closed_form":
                a["rhs_pairs"] += attrs["pairs"]
            if name in KERNELS:
                a["scalar_pairs" if "scalar" in name else "vector_pairs"] += \
                    attrs["pairs"]
                kind = spans[parent][0].rsplit(".", 1)[1] \
                    if parent is not None else None
                if kind in slice_s:
                    slice_s[kind] += dur[i]
                    slice_pairs[kind] += attrs["pairs"]
    quad_calls = n.get(QUAD, 0)
    eigs, certs = n.get(EIG, 0), n.get(CERT, 0)
    mc_s = sum(t.get(k, 0.0) for k in MC)
    return {
        "reports.emit_s": t.get("reports.emit_report", 0.0),
        "reports.bytes": a["report_bytes"],
        "identities.scalar_ns_per_pair": _ratio(
            t.get(KERNELS[0], 0.0), a["scalar_pairs"], 1e9),
        "identities.vector_ns_per_pair": _ratio(
            t.get(KERNELS[1], 0.0), a["vector_pairs"], 1e9),
        "identities.generic_ns_per_pair": _ratio(
            slice_s["generic"], slice_pairs["generic"], 1e9),
        "identities.adversarial_ns_per_pair": _ratio(
            slice_s["adversarial"], slice_pairs["adversarial"], 1e9),
        "identities.rhs_closed_ns_per_pair": _ratio(
            t.get("identities.rhs_closed_form", 0.0), a["rhs_pairs"], 1e9),
        "quadrature.calls": quad_calls,
        "quadrature.integrand_calls": a["quad_integrand_calls"],
        "quadrature.points": a["quad_points"],
        "quadrature.subdivisions": a["quad_subdiv"],
        "quadrature.sweeps_per_integral": _ratio(a["quad_integrand_calls"],
                                                 quad_calls),
        "quadrature.self_s": a["quad_self_s"],
        "quadrature.failures": a["quad_failures"],
        "integrand.s": a["quad_integrand_s"],
        "integrand.points_per_s": _ratio(a["quad_points"],
                                         a["quad_integrand_s"]),
        "functional.reduce_calls": n.get("functional.reduce_radial_functional", 0),
        "functional.s_per_quotient": _ratio(
            t.get("functional.reduce_radial_functional", 0.0),
            n.get("functional.reduce_radial_functional", 0)),
        "sharpness.sweep_s": t.get("sharpness.sweep_quotient", 0.0),
        "sharpness.psi_s": t.get("sharpness.psiR_deficit", 0.0),
        "sharpness.improved_s": t.get("sharpness.improved_weight_check", 0.0),
        "spectral.shots_per_eig": _ratio(a["eig_shots"], eigs),
        "spectral.nfev_per_eig": _ratio(a["eig_nfev"], eigs),
        "spectral.s_per_eig": _ratio(t.get(EIG, 0.0), eigs),
        "besselpair.nfev_per_cert": _ratio(a["cert_nfev"], certs),
        "besselpair.s_per_cert": _ratio(t.get(CERT, 0.0), certs),
        "ode.calls": n.get(ODE, 0),
        "ode.nfev": a["ode_nfev"],
        "ode.s": t.get(ODE, 0.0),
        "ode.us_per_rhs": _ratio(t.get(ODE, 0.0), a["ode_nfev"], 1e6),
        "geometry.mc_samples_per_s": _ratio(a["mc_samples"], mc_s),
        "geometry.mc_s": mc_s,
    }
