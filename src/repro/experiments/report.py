"""Structured experiment results and table rendering.

Every experiment returns an :class:`ExperimentResult`: the paper claim,
a table of measured rows, and a pass/fail conclusion comparing measured
behaviour to the claim.  ``python -m repro run`` prints these tables and
``python -m repro writeup`` collects them into EXPERIMENTS.md — the
reproduction's stand-in for the (absent) tables of a systems paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

__all__ = ["ExperimentResult", "format_table", "render", "render_many"]


@dataclass
class ExperimentResult:
    """One reproduced claim."""

    exp_id: str
    title: str
    paper_claim: str
    columns: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)
    matches_paper: bool = True
    notes: str = ""

    def add(self, *row) -> None:
        if len(row) != len(self.columns):
            raise ValueError(
                f"row arity {len(row)} != columns {len(self.columns)}"
            )
        self.rows.append(tuple(row))

    def require(self, condition: bool, note: str = "") -> bool:
        """Record a per-claim check; any failure flips matches_paper."""
        if not condition:
            self.matches_paper = False
            if note:
                self.notes = (self.notes + "; " if self.notes else "") + note
        return condition


def format_table(columns: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Plain-text aligned table."""
    texts = [[str(c) for c in columns]] + [
        [str(cell) for cell in row] for row in rows
    ]
    widths = [max(len(r[i]) for r in texts) for i in range(len(columns))]
    lines = []
    header = " | ".join(t.ljust(w) for t, w in zip(texts[0], widths))
    lines.append(header)
    lines.append("-+-".join("-" * w for w in widths))
    for row in texts[1:]:
        lines.append(" | ".join(t.ljust(w) for t, w in zip(row, widths)))
    return "\n".join(lines)


def render(result: ExperimentResult) -> str:
    """Render a full experiment report block."""
    status = "MATCHES PAPER" if result.matches_paper else "** MISMATCH **"
    parts = [
        f"== {result.exp_id}: {result.title} [{status}]",
        f"   claim: {result.paper_claim}",
    ]
    if result.notes:
        parts.append(f"   notes: {result.notes}")
    parts.append(format_table(result.columns, result.rows))
    return "\n".join(parts)


def render_many(results: Sequence[ExperimentResult]) -> str:
    """Render a batch of reports as one stable text block.

    Used by the parallel registry path for serial-vs-parallel output
    comparison: the text depends only on the results and their order.
    """
    return "\n\n".join(render(result) for result in results)
