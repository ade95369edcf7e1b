"""Deterministic machine-readable reports.

CSV files carry exactly a header row plus data rows (RFC 4180, '.' decimal
separator, 17 significant digits); JSON reports are objects
{config, rows, summary}. Identical (config, seed) runs produce byte-identical
files.
"""

from __future__ import annotations

import json
import sys
from typing import Sequence

__all__ = ["format_number", "render_csv", "render_json", "emit_report"]


def format_number(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _quoted(cells: list[str]) -> list[str]:
    """A column's cells quoted as csv.writer's minimal quoting quotes them:
    those that hold a comma, a double quote or a newline."""
    if not any(c in "".join(cells) for c in ',"\n'):
        return cells
    return ['"' + s.replace('"', '""') + '"'
            if any(c in s for c in ',"\n') else s for s in cells]


def render_csv(rows: Sequence[dict]) -> str:
    """The header row and the data rows, each column formatted at once and
    the rows then joined: byte for byte what csv.writer writes with
    lineterminator "\n" from `format_number` cells."""
    if not rows:
        raise ValueError("empty report: no rows to take the header from")
    header = list(rows[0])
    if any(list(row) != header for row in rows):
        raise ValueError("rows must be homogeneous")
    columns = [_quoted([str(key), *map(format_number, values)])
               for key, values in zip(header, zip(*(r.values() for r in rows)))]
    if len(columns) == 1:   # csv.writer quotes a row's lone empty field
        columns = [[s or '""' for s in columns[0]]]
    return "\n".join(map(",".join, zip(*columns))) + "\n"


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
