"""Plain-text, Markdown and CSV table emission for experiment results."""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Sequence


def _stringify(cell: object, floatfmt: str) -> str:
    if isinstance(cell, bool):
        return str(cell)
    if isinstance(cell, float):
        return format(cell, floatfmt)
    return str(cell)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    floatfmt: str = ".4f",
) -> str:
    """Fixed-width aligned text table (for terminal output)."""
    cells = [[_stringify(c, floatfmt) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append("  ".join(c.rjust(widths[i]) for i, c in enumerate(row)))
    return "\n".join(lines)


def format_markdown(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    floatfmt: str = ".4f",
) -> str:
    """GitHub-flavoured Markdown table (for EXPERIMENTS.md)."""
    cells = [[_stringify(c, floatfmt) for c in row] for row in rows]
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    for row in cells:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def write_csv(
    path: str | Path,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
) -> None:
    """Write rows to a CSV file (creates parent directories)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(headers)
        writer.writerows(rows)
