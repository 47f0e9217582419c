"""Plain-text tables and figure series for benchmark output.

Every experiment regenerates its paper table/figure as aligned text;
benchmarks print these so ``pytest benchmarks/ --benchmark-only -s``
reproduces the whole evaluation section in one transcript.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Fixed-width table with a rule under the header."""
    materialized: List[List[str]] = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    parts: List[str] = []
    if title:
        parts.append(title)
    parts.append(line(list(headers)))
    parts.append("  ".join("-" * w for w in widths))
    parts.extend(line(row) for row in materialized)
    return "\n".join(parts)


def format_series(
    title: str,
    points: Sequence[tuple],
    value_format: str = "{:.2f}",
    bar_width: int = 40,
) -> str:
    """A labeled bar series (the text rendering of a paper figure).

    ``points`` are ``(label, value)`` pairs; non-numeric values (e.g.
    "TLE") print as-is with a full-width marker, matching the paper's
    red DNF bars.
    """
    parts = [title]
    numeric = [v for _, v in points if isinstance(v, (int, float))]
    peak = max(numeric) if numeric else 1.0
    label_width = max((len(str(label)) for label, _ in points), default=0)
    for label, value in points:
        if isinstance(value, (int, float)):
            filled = 0 if peak <= 0 else round(bar_width * value / peak)
            bar = "#" * max(filled, 1 if value > 0 else 0)
            rendered = value_format.format(value)
        else:
            bar = "!" * bar_width
            rendered = str(value)
        parts.append(f"  {str(label).ljust(label_width)}  {bar} {rendered}")
    return "\n".join(parts)
