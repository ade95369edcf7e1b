"""Repeat run.py over seeds and summarize each metric: median, quartiles and
spread (interquartile distance over the median).

    python3 perfbench/baseline.py --workloads cli_cold,radial_ode \
        --seeds 1-10 --seconds 10 [--trace] [--out results.json]

Prints one markdown table per workload; --out also keeps every run's values.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                   else (values[0],) * 3)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()
    runs = {}
    for workload in args.workloads.split(","):
        for seed in seed_range(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(int(args.trace))],
                capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr}", file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.setdefault(workload, []).append({"seed": seed, **res})
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']}",
                  file=sys.stderr, flush=True)
    table = {}
    for workload, results in runs.items():
        print(f"\n{workload} ({len(results)} seeds, {args.seconds} s runs)\n")
        print("| metric | unit | median | q1 | q3 | spread |")
        print("|---|---|---|---|---|---|")
        for name, m in results[0]["metrics"].items():
            s = summarize([r["metrics"][name]["value"] for r in results])
            table.setdefault(workload, {})[name] = s
            print(f"| {name} | {m['unit']} | {s['median']:.6g} | {s['q1']:.6g} "
                  f"| {s['q3']:.6g} | {s['spread']:.3f} |")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"summary": table, "runs": runs}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
