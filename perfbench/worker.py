"""Runs one workload in a fresh interpreter and prints one JSON object.

    python perfbench/worker.py --workload NAME --seed N --seconds S
                               --mode {setup,timed,traced} --scratch DIR
                               [--scale {full,tiny}]

setup   cold import plus input building only; reports its time.
timed   set-up, then whole passes until S seconds (at least the workload's
        minimum number of passes), no wrappers installed.
traced  wrappers installed before hardylab is imported; one pass with the
        recorder off (after a discarded warm-up pass for in-process
        workloads), then one pass with it on; reports per-layer metrics and
        the difference of the two pass wall times as tracing overhead.

run.py starts this script with PYTHONPATH pointing at the checkout's src/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import pace
import tracing
import workloads

MAX_TIMED_S = 120.0     # stop starting passes after this, whatever the minimum


def _import_times(env_runs: int = 3) -> dict:
    """Cold `import hardylab.cli` under -X importtime, median of runs."""
    cli, integ = [], []
    for _ in range(env_runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import hardylab.cli"],
                              capture_output=True, text=True, check=True)
        rows = []
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2].rstrip()
            rows.append((len(name) - len(name.lstrip()), name.strip(),
                         int(parts[1]) * 1e-6))
        top = min(level for level, _, _ in rows)
        cli.append(sum(c for level, name, c in rows if level == top and
                       (name == "hardylab" or name.startswith("hardylab."))))
        integ.append(sum(c for _, name, c in rows if name == "scipy.integrate"))
    return {"import.cli_s": statistics.median(cli),
            "import.scipy_integrate_s": statistics.median(integ)}


def _versions() -> dict:
    import numpy
    import scipy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--scratch", required=True)
    args = ap.parse_args()
    os.environ.pop("HARDYLAB_THREADS", None)

    rec = None
    if args.mode == "traced":
        rec = tracing.Recorder()
        tracing.install(rec)
    tracer = rec or tracing.NullTracer()
    wl = workloads.WORKLOADS[args.workload]()
    t0 = time.perf_counter()
    jobs = wl.setup(args.seed, args.scale, args.scratch, tracer)
    setup_s = time.perf_counter() - t0
    # a cold start is mostly mapping shared libraries and faulting in pages,
    # so set-up is rescaled by the array reference whatever the workload
    out = {"setup_s": setup_s, "setup_ref": pace.reference_s("arrays")}
    if args.mode == "setup":
        print(json.dumps(out))
        return

    records, digests = [], {}
    out.update(jobs_per_pass=len(jobs), min_passes=wl.min_passes,
               reference=wl.reference, versions=_versions())
    if args.mode == "timed":
        passes, start = 0, time.perf_counter()
        while passes < wl.min_passes or time.perf_counter() - start < args.seconds:
            if passes and time.perf_counter() - start > MAX_TIMED_S:
                break
            workloads.run_pass(jobs, tracer, records, digests, wl.reference)
            passes += 1
        who = resource.RUSAGE_CHILDREN if wl.subprocess_jobs \
            else resource.RUSAGE_SELF
        out.update(passes=passes,
                   peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024.0)
    else:
        if not wl.subprocess_jobs:
            # warm-up pass, so the untraced pass pays no first-call costs
            workloads.run_pass(jobs, tracer, [], digests, wl.reference)
        t = time.perf_counter()
        workloads.run_pass(jobs, tracer, records, digests, wl.reference)
        untraced = time.perf_counter() - t
        rec.enabled = True
        wl.traced = True
        t = time.perf_counter()
        workloads.run_pass(jobs, tracer, records, digests, wl.reference)
        traced = time.perf_counter() - t
        rec.enabled = False
        groups = [rec.dump()]
        for path in wl.span_files:
            with open(path, encoding="utf-8") as fh:
                groups.append(json.load(fh))
        layer = dict.fromkeys(tracing.PER_LAYER, 0.0)
        layer.update(tracing.summarize(groups))
        layer.update(wl.readings)
        if wl.subprocess_jobs:
            layer.update(_import_times())
        layer["trace.overhead_s"] = traced - untraced
        layer["trace.overhead_share"] = (traced - untraced) / untraced
        out.update(passes=2, layer=layer, spans=sum(map(len, groups)),
                   untraced_s=untraced, traced_s=traced)
    out["records"] = records
    print(json.dumps(out))


if __name__ == "__main__":
    main()
