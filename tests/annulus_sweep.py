"""The annulus eigenvalue sweep: `hardylab eig` over an 861-case grid.

Run from the repository root (pytest does not collect this file):

    PYTHONPATH=src python tests/annulus_sweep.py

The grid is p in {2, 2.5, 3, 4, 6, 8, 20}, Q in {0, 1, p, 2p + 1, 20, 50}
(deduplicated), theta = 1, a = 1, b in {1.001, 2, 10, 1e10, 1e50, 1e150,
1e300} and --which n in {1, 2, 5}. Each case runs the CLI in process; a case
passes when it exits 0. The script prints every failing case with its exit
code and message, then "N of 861 pass", then one sha256 over the argv, the
repr of lambda and of the endpoint residual (the half-period check's
relative miss |n T(lambda) - ln(b/a)| / ln(b/a)) of every passing case, in
grid order: two trees that print the same line agree on every passing case.
Its last line is the total integrand calls of the half-period integrals
(`spectral._half_periods`) over the grid, a deterministic count of the
search's quadrature work that two trees can compare. It exits 0 when every case passes and 1 when any fails, so the sweep can
gate a run.
"""

import contextlib
import hashlib
import io
import json
import sys

from hardylab import spectral
from hardylab.cli import run

P_GRID = (2.0, 2.5, 3.0, 4.0, 6.0, 8.0, 20.0)
B_GRID = ("1.001", "2", "10", "1e10", "1e50", "1e150", "1e300")
WHICH_GRID = (1, 2, 5)


def cases():
    """The argument vectors of the grid, p-major."""
    for p in P_GRID:
        for Q in dict.fromkeys((0.0, 1.0, p, 2 * p + 1, 20.0, 50.0)):
            for b in B_GRID:
                for n in WHICH_GRID:
                    yield ["eig", "--Q", f"{Q:g}", "--p", f"{p:g}", "--theta",
                           "1", "--a", "1", "--b", b, "--which", str(n)]


@contextlib.contextmanager
def half_period_calls():
    """Within the block, each `spectral._half_periods` call appends the
    number of integrand calls its `integrate_batch` call made to the list
    this yields; `spectral.integrate_batch` is wrapped, and its other callers
    (the eigenfunction's integrals) are not counted."""
    counts, inside = [], False
    half_periods, integrate = spectral._half_periods, spectral.integrate_batch

    def counted_half_periods(problem, lam):
        nonlocal inside
        counts.append(0)
        inside = True
        try:
            return half_periods(problem, lam)
        finally:
            inside = False

    def counted_integrate(f, *args, **kwargs):
        def g(x, owner):
            counts[-1] += 1
            return f(x, owner)

        return integrate(g if inside else f, *args, **kwargs)

    spectral._half_periods = counted_half_periods
    spectral.integrate_batch = counted_integrate
    try:
        yield counts
    finally:
        spectral._half_periods = half_periods
        spectral.integrate_batch = integrate


def main() -> int:
    grid = list(cases())
    passed, digest = 0, hashlib.sha256()
    with half_period_calls() as counts:
        for argv in grid:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = run(argv)
            if code == 0:
                passed += 1
                summary = json.loads(out.getvalue())["summary"]
                digest.update(repr((argv, summary["lambda"],
                                    summary["endpoint_residual"])).encode())
            else:
                message = err.getvalue().strip().replace("\n", " | ")
                print(f"{' '.join(argv)}: exit {code}: {message}")
    print(f"{passed} of {len(grid)} pass")
    print(f"sha256 of the passing cases: {digest.hexdigest()}")
    print(f"half-period integrand calls over the grid: {sum(counts)}")
    return int(passed < len(grid))


if __name__ == "__main__":
    sys.exit(main())
