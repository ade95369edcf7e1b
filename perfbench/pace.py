"""A fixed reference computation that measures how fast the machine runs now.

On a shared box the speed of the same code drifts by tens of percent over
minutes, far more than a run can average away. The benchmark times a
reference between jobs and rescales each job's wall time to the speed at
which the reference takes its REFERENCE_S, so the drift cancels and a change
in hardylab does not. Each workload names the kind that resembles its own
work, because the machine's states slow different kinds of code by different
amounts: "interpreter" mixes interpreted arithmetic with small NumPy
operations; "arrays" fills and reduces 4 MB of fresh pages, as a large-array
kernel or a cold start does. Neither calls hardylab.
"""

from __future__ import annotations

import math
import mmap
import time

# median time of each reference on the box the bounds were set on
REFERENCE_S = {"interpreter": 0.0030, "arrays": 0.0028}


def _interpreter(np, data) -> float:
    t0 = time.perf_counter()
    s = 0.0
    for i in range(20000):
        s += math.sin(i) * 0.5
    for _ in range(20):
        data @ np.exp(np.sort(data))
    return time.perf_counter() - t0


def _arrays(np, data) -> float:
    t0 = time.perf_counter()
    # fresh anonymous pages straight from the kernel, as a kernel's large
    # temporaries get them, whatever state the job left the heap in
    buf = mmap.mmap(-1, 1 << 22)
    a = np.frombuffer(buf, dtype=float)
    a.fill(0.5)
    np.sqrt(a, out=a)
    float(a.sum())
    del a
    buf.close()
    return time.perf_counter() - t0


def reference_s(kind: str) -> float:
    """Time of one reference: the fastest of three runs after a warm-up run,
    so neither the caches a job just filled nor one interrupt count."""
    import numpy as np

    run = {"interpreter": _interpreter, "arrays": _arrays}[kind]
    data = np.random.default_rng(0).normal(size=4096)
    run(np, data)
    return min(run(np, data) for _ in range(3))
