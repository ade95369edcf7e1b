"""Deterministic machine-readable reports.

CSV files carry exactly a header row plus data rows (RFC 4180, '.' decimal
separator, 17 significant digits); JSON reports are objects
{config, rows, summary}. Identical (config, seed) runs produce byte-identical
files.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from typing import Sequence

__all__ = ["format_number", "render_csv", "render_json", "emit_report"]


def format_number(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def render_csv(rows: Sequence[dict]) -> str:
    if not rows:
        raise ValueError("empty report: no rows to take the header from")
    header = list(rows[0].keys())
    for row in rows:
        if list(row.keys()) != header:
            raise ValueError("rows must be homogeneous")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_number(v) for v in row.values()])
    return buf.getvalue()


def render_json(config: dict, rows: Sequence[dict], summary: dict) -> str:
    return json.dumps({"config": config, "rows": list(rows),
                       "summary": summary}, indent=2) + "\n"


def emit_report(rows: Sequence[dict], fmt: str, path: str | None,
                config: dict, summary: dict) -> None:
    """Write the run report; CSV keeps the table clean (header + rows only)
    and surfaces the resolved config on stderr instead."""
    if fmt == "csv":
        text = render_csv(rows)
        print(json.dumps({"config": config, "summary": summary}),
              file=sys.stderr)
    elif fmt == "json":
        text = render_json(config, rows, summary)
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
