"""Shared helpers for the experiment harness."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..gpusim.diagnostics import FaultReport
from ..gpusim.errors import SimError

def describe_failure(exc: BaseException) -> str:
    """One-line failure summary, located when the simulator knows where."""
    if isinstance(exc, SimError):
        return FaultReport.from_exception(exc).summary()
    return f"{type(exc).__name__}: {exc}"


def failure_row(name: str, reason: str, n_cols: int) -> list[object]:
    """A degraded table row standing in for a benchmark that faulted."""
    row: list[object] = [name, f"FAILED: {reason}"]
    row.extend("-" for _ in range(n_cols - len(row)))
    return row[:n_cols]


def geomean(values: Iterable[float]) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Plain-text table with per-column width fitting."""
    str_rows = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 100:
            return f"{cell:.0f}"
        if abs(cell) >= 1:
            return f"{cell:.2f}"
        return f"{cell:.4f}"
    return str(cell)


@dataclass
class ExperimentResult:
    """Uniform result record for one regenerated table/figure."""

    exp_id: str                    # 'fig10', 'table1', ...
    title: str
    headers: list[str]
    rows: list[list[object]] = field(default_factory=list)
    #: Anchor values the paper states numerically, for EXPERIMENTS.md:
    #: (description, paper value, measured value).
    paper_anchors: list[tuple[str, str, str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: "name: reason" for every benchmark that faulted instead of producing
    #: a real row.  Faults degrade single rows; they never abort the table.
    failures: list[str] = field(default_factory=list)

    def add_failure(self, name: str, exc: BaseException) -> None:
        """Record a faulted benchmark as a degraded row + failure note."""
        reason = describe_failure(exc)
        self.rows.append(failure_row(name, reason, len(self.headers)))
        self.failures.append(f"{name}: {reason}")

    def format(self) -> str:
        out = [format_table(self.headers, self.rows, title=f"{self.exp_id}: {self.title}")]
        if self.paper_anchors:
            out.append("")
            out.append("paper anchors (paper -> measured):")
            for desc, paper, measured in self.paper_anchors:
                out.append(f"  {desc}: {paper} -> {measured}")
        for failure in self.failures:
            out.append(f"failure: {failure}")
        for note in self.notes:
            out.append(f"note: {note}")
        return "\n".join(out)
