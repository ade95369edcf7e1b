"""Traced CLI child: installs the span wrappers, then runs hardylab.cli.run.

    python perfbench/launcher.py --spans FILE --job NAME -- <hardylab argv>

Writes the recorded spans to FILE as JSON and exits with the CLI's code.
"""

from __future__ import annotations

import json
import sys

import tracing


def main() -> int:
    argv = sys.argv[1:]
    sep = argv.index("--")
    opts = dict(zip(argv[:sep:2], argv[1:sep:2]))
    rec = tracing.Recorder()
    tracing.install(rec)
    import hardylab.cli

    rec.enabled, rec.job = True, opts["--job"]
    try:
        with rec.span("cli.run"):
            code = hardylab.cli.run(argv[sep + 1:])
    finally:
        rec.enabled = False
        with open(opts["--spans"], "w", encoding="utf-8") as fh:
            json.dump(rec.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
