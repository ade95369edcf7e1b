"""hardylab benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is taken from src/ next to this directory.
With --trace 0 it prints the end-to-end metrics (set-up time as the median of
seven cold set-ups spread around a timed run in a fresh worker process); with
--trace 1 it prints the per-layer metrics of a traced run. The last line of
standard output is the JSON result; the lines before it are for people.
Exit code 2 when the package sources are missing or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys

import pace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("cli_cold", "identity_bulk", "profile_quadrature", "radial_ode")
SETUP_SAMPLES = 7       # counted cold set-ups per run, one in the timed worker
WORKER_TIMEOUT_S = 170
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END_UNITS = {"setup_s": "s", "work_per_s": "items/s", "job_p50_s": "s",
                    "job_tail_s": "s", "peak_rss_mb": "MB"}


class WorkerError(RuntimeError):
    pass


def worker(env, scratch, *args):
    """Run worker.py in its own session; kill the whole group on timeout."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--scratch",
           scratch, *map(str, args)]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerError(f"worker timed out after {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0 or not out.strip():
        raise WorkerError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def tail_percentile(n_min: int) -> int:
    """The highest whole percentile with at least ten jobs beyond it in the
    smallest run the workload can make (its minimum number of passes); fixed
    per workload so that runs with different pass counts report the same
    percentile."""
    return max(50, math.floor(100 * (n_min - 10) / n_min))


def nearest_rank(sorted_values, pct):
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def environment(versions: dict) -> dict:
    env = {"nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)),
           **versions,
           "HARDYLAB_THREADS": "unset for the run (caller had "
                               f"{os.environ.get('HARDYLAB_THREADS', 'unset')})"}
    env.update({k: f"1 for the run (caller had {os.environ.get(k, 'unset')})"
                for k in BLAS_VARS})
    return env


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "hardylab", "__init__.py")):
        print(f"no hardylab sources under {SRC}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.pop("HARDYLAB_THREADS", None)
    # one BLAS thread: on two busy cores, starting OpenBLAS's pool made a cold
    # numpy import take 50% longer at some times than at others
    env.update(dict.fromkeys(BLAS_VARS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    scratch = os.path.join(ROOT, ".bench_build", "perfbench", f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    common = ("--workload", args.workload, "--seed", args.seed)
    try:
        if args.trace:
            res = worker(env, scratch, *common, "--mode", "traced")
        else:
            # the first cold set-up also fills the bytecode and file caches
            # and is not counted; the counted ones are spread before and
            # after the timed worker, whose own set-up is one of them
            def setup():
                return worker(env, scratch, *common, "--mode", "setup")

            setup()
            before = (SETUP_SAMPLES - 1) // 2
            setups = [setup() for _ in range(before)]
            res = worker(env, scratch, *common, "--mode", "timed",
                         "--seconds", args.seconds)
            setups.append(res)
            setups += [setup() for _ in range(SETUP_SAMPLES - 1 - before)]
    except (WorkerError, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    records = res["records"]
    failed = [(name, err) for name, _, _, err, _ in records if err]
    attempted = len(records)
    print("env", json.dumps(environment(res["versions"]), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {res['passes']} passes of "
          f"{res['jobs_per_pass']} jobs, {attempted} attempted, "
          f"{len(failed)} failed, fail_ratio {len(failed) / attempted:.6g} (1)")
    for name, err in dict(failed).items():
        print(f"FAILED {name}: {err}")

    if args.trace:
        from tracing import PER_LAYER
        metrics = {k: {"value": float(res["layer"][k]), "unit": unit}
                   for k, (unit, _) in PER_LAYER.items()}
        print(f"traced pass {res['traced_s']:.4f} s, untraced pass "
              f"{res['untraced_s']:.4f} s, {res['spans']} spans")
    else:
        # wall seconds rescaled to the reference speed (see pace.py)
        nominal = pace.REFERENCE_S[res["reference"]]
        lat = sorted(wall * nominal / ref for _, wall, _, _, ref in records)
        speed = statistics.median(nominal / r[4] for r in records)
        pct = tail_percentile(res["min_passes"] * res["jobs_per_pass"])
        verified = sum(items for _, _, items, err, _ in records if not err)
        setup = [s["setup_s"] * pace.REFERENCE_S["arrays"] / s["setup_ref"]
                 for s in setups]
        values = {"setup_s": statistics.median(setup),
                  "work_per_s": verified / sum(lat),
                  "job_p50_s": statistics.median(lat),
                  "job_tail_s": nearest_rank(lat, pct),
                  "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
        wall = sorted(r[1] for r in records)
        print(f"job_tail_s is p{pct} of {len(lat)} jobs; setup_s is the median "
              f"of {len(setup)} cold set-ups; times are rescaled to the "
              f"reference speed (median job factor {speed:.4f}; raw wall p50 "
              f"{statistics.median(wall):.6g} s, p{pct} {nearest_rank(wall, pct):.6g} s, "
              f"set-up {statistics.median(s['setup_s'] for s in setups):.6g} s)")
    for k, m in metrics.items():
        print(f"  {k:38s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
