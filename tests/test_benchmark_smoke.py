"""The benchmark's four workloads at their tiny scale, each in a child
process as `perfbench/run.py` starts them: a change under `src/` that breaks
what a workload reads (a name, a signature, a result's keys) or what its
checks accept fails here, not only when the benchmark runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["cli_cold", "identity_bulk",
                                      "profile_quadrature", "radial_ode"])
def test_benchmark_workload_runs_clean(workload, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload",
         workload, "--mode", "timed", "--seconds", "0", "--scale", "tiny",
         "--seed", "3", "--scratch", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    records = result["records"]
    assert len(records) == result["passes"] * result["jobs_per_pass"] > 0
    assert [(name, err) for name, _, _, err, _ in records if err] == []
