"""Counter-coverage self-test of the benchmark.

A tiny traced pass of each workload must leave every layer counter that the
workload is meant to exercise nonzero, and the counters of layers it bypasses
at zero. A refactor that rebinds a wrapped name so that the wrapper no longer
sees the calls fails here instead of silently zeroing a counter.

    python -m pytest perfbench/test_perfbench.py
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402

IDENTITY = ["identities.scalar_ns_per_pair", "identities.vector_ns_per_pair",
            "identities.generic_ns_per_pair",
            "identities.adversarial_ns_per_pair",
            "identities.rhs_closed_ns_per_pair"]
QUADRATURE = ["quadrature.calls", "quadrature.integrand_calls",
              "quadrature.points", "quadrature.subdivisions", "integrand.s",
              "functional.reduce_calls"]
SHARPNESS = ["sharpness.sweep_s", "sharpness.psi_s", "sharpness.improved_s"]
SPECTRAL = ["spectral.shots_per_eig", "spectral.nfev_per_eig",
            "spectral.s_per_eig"]
BESSEL = ["besselpair.nfev_per_cert", "besselpair.s_per_cert"]
ODE = ["ode.calls", "ode.nfev", "ode.s"]
GEOMETRY = ["geometry.mc_s", "geometry.mc_samples_per_s"]
REPORTS = ["reports.emit_s", "reports.bytes"]
IMPORT = ["import.cli_s", "import.scipy_integrate_s"]

# workload -> (counters that must be nonzero, counters that must be zero)
EXPECT = {
    "identity_bulk": (IDENTITY, QUADRATURE + SHARPNESS + SPECTRAL + BESSEL
                      + ODE + GEOMETRY + REPORTS),
    "profile_quadrature": (QUADRATURE + SHARPNESS, IDENTITY + SPECTRAL
                           + BESSEL + ODE + GEOMETRY + REPORTS),
    "radial_ode": (SPECTRAL + BESSEL + ODE, IDENTITY + QUADRATURE + SHARPNESS
                   + GEOMETRY + REPORTS),
    # the tiny command list has no vector identity and no psi/improved modes
    "cli_cold": (IMPORT + REPORTS + GEOMETRY + IDENTITY[:1] + IDENTITY[4:]
                 + QUADRATURE + SHARPNESS[:1] + SPECTRAL + BESSEL + ODE,
                 IDENTITY[1:4]),
}


@pytest.mark.parametrize("workload", sorted(EXPECT))
def test_layer_counters_cover_workload(workload, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("HARDYLAB_THREADS", None)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload",
         workload, "--seed", "3", "--mode", "traced", "--scale", "tiny",
         "--scratch", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert [r for r in res["records"] if r[3]] == []
    layer = res["layer"]
    assert set(layer) == set(tracing.PER_LAYER)
    nonzero, zero = EXPECT[workload]
    assert [k for k in nonzero if not layer[k] > 0] == []
    assert [k for k in zero if layer[k] != 0] == []


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == tracing.PER_LAYER
