"""The annulus eigenvalue sweep: `hardylab eig` over an 861-case grid.

Run from the repository root (pytest does not collect this file):

    PYTHONPATH=src python tests/annulus_sweep.py

The grid is p in {2, 2.5, 3, 4, 6, 8, 20}, Q in {0, 1, p, 2p + 1, 20, 50}
(deduplicated), theta = 1, a = 1, b in {1.001, 2, 10, 1e10, 1e50, 1e150,
1e300} and --which n in {1, 2, 5}. Each case runs the CLI in process; a case
passes when it exits 0. The script prints every failing case with its exit
code and message, then "N of 861 pass", then one sha256 over the argv, the
repr of lambda and of the endpoint residual of every passing case, in grid
order: two trees that print the same line agree on every passing case.
"""

import contextlib
import hashlib
import io
import json
import sys

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


def main() -> int:
    grid = list(cases())
    passed, digest = 0, hashlib.sha256()
    for argv in grid:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
