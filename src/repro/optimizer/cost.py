"""Cardinality estimation and cost-based plan choice.

The rewrites of Section 4.4 are *sound* whenever their justifications
hold, but not always *profitable* — e.g. pushing a projection below a
highly selective difference duplicates projection work.  This module
adds the classical optimizer counterpart: estimate costs from catalog
statistics and keep a rewrite only when the estimate says it helps.
The estimates use the same width-weighted work model as the executor,
so estimated and measured costs are directly comparable (benchmarked in
``bench_ablation.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping as TMapping, Optional

from .constraints import Catalog
from .plan import (
    Difference,
    Intersect,
    Join,
    MapNode,
    Plan,
    Product,
    Project,
    Scan,
    Select,
    Union,
)
from .rewriter import Rewriter

__all__ = [
    "Stats",
    "estimate",
    "Estimate",
    "choose_plan",
]

#: Default selectivity guesses (classical System R style).
_SELECT_SELECTIVITY = 0.33
_DIFF_SURVIVAL = 0.7
_INTERSECT_SURVIVAL = 0.3


def _clamp_selectivity(s: float) -> float:
    """Force a selectivity into (0, 1].

    Degenerate catalogs (empty relations, zero distinct counts, stats
    gathered mid-mutation) can otherwise drive a factor to 0, below, or
    NaN — and a zero selectivity propagates to zero/negative row counts
    that later divide or subtract into nonsense."""
    if not s > 0.0:  # catches 0, negatives and NaN in one comparison
        return 1e-6
    return min(s, 1.0)


@dataclass
class Stats:
    """Per-relation cardinality and width statistics."""

    rows: dict[str, int] = field(default_factory=dict)
    widths: dict[str, int] = field(default_factory=dict)
    #: ``relation -> column index -> distinct value count``.  Optional;
    #: when present, key-join estimates use real duplication factors
    #: instead of the one-match-per-row heuristic.
    distincts: dict[str, dict[int, int]] = field(default_factory=dict)

    @classmethod
    def of_database(cls, relations: TMapping[str, object]) -> "Stats":
        """Collect exact stats from an in-memory database snapshot."""
        rows = {}
        widths = {}
        for name, relation in relations.items():
            rows[name] = len(relation)
            widths[name] = max((len(t) for t in relation), default=1)
        return cls(rows, widths)

    @classmethod
    def from_database(cls, db) -> "Stats":
        """Exact stats from a live :class:`~repro.engine.database.Database`:
        real cardinalities, cached widths, and per-column distinct
        counts — not System-R default guesses.

        Cardinalities and widths come from the database's maintained
        physical state (O(#relations)); distinct counts are one pass
        per relation, cached by :meth:`Database.column_distincts` until
        the relation next changes."""
        rows = {}
        widths = {}
        distincts = {}
        for name, relation in db.relations.items():
            rows[name] = len(relation)
            width = db.relation_width(name)
            if width is None:
                width = max(
                    (len(t) for t in relation if hasattr(t, "__len__")),
                    default=1,
                )
            widths[name] = max(width, 1)
            distincts[name] = db.column_distincts(name)
        return cls(rows, widths, distincts)


@dataclass
class Estimate:
    """Estimated output cardinality/width and cumulative work."""

    rows: float
    width: float
    work: float

    @property
    def weight(self) -> float:
        return self.rows * self.width


def estimate(plan: Plan, stats: Stats) -> Estimate:
    """Bottom-up cost estimation mirroring the executor's work model
    (explicit stack, any depth)."""
    memo: dict[int, Estimate] = {}
    stack: list[tuple[Plan, bool]] = [(plan, False)]
    while stack:
        node, ready = stack.pop()
        if ready:
            memo[id(node)] = _estimate_node(node, memo, stats)
            continue
        if id(node) in memo:
            continue
        stack.append((node, True))
        for child in node.children():
            stack.append((child, False))
    return memo[id(plan)]


def _estimate_node(
    plan: Plan, memo: dict[int, Estimate], stats: Stats
) -> Estimate:
    """One node's estimate, children already in ``memo``."""
    if isinstance(plan, Scan):
        rows = max(stats.rows.get(plan.relation, 0), 0)
        width = max(stats.widths.get(plan.relation, 1), 1)
        return Estimate(rows, width, 0.0)
    if isinstance(plan, Project):
        child = memo[id(plan.child)]
        return Estimate(
            child.rows,  # conservatively: no duplicate collapse
            len(plan.columns),
            child.work + child.weight,
        )
    if isinstance(plan, Select):
        child = memo[id(plan.child)]
        return Estimate(
            child.rows * _clamp_selectivity(_SELECT_SELECTIVITY),
            child.width,
            child.work + child.weight,
        )
    if isinstance(plan, MapNode):
        child = memo[id(plan.child)]
        return Estimate(child.rows, child.width, child.work + child.weight)
    if isinstance(plan, Union):
        left = memo[id(plan.left)]
        right = memo[id(plan.right)]
        return Estimate(
            left.rows + right.rows,
            max(left.width, right.width),
            left.work + right.work + left.weight + right.weight,
        )
    if isinstance(plan, Difference):
        left = memo[id(plan.left)]
        right = memo[id(plan.right)]
        return Estimate(
            left.rows * _clamp_selectivity(_DIFF_SURVIVAL),
            left.width,
            left.work + right.work + left.weight + right.weight,
        )
    if isinstance(plan, Intersect):
        left = memo[id(plan.left)]
        right = memo[id(plan.right)]
        return Estimate(
            min(left.rows, right.rows)
            * _clamp_selectivity(_INTERSECT_SURVIVAL),
            left.width,
            left.work + right.work + left.weight + right.weight,
        )
    if isinstance(plan, Product):
        left = memo[id(plan.left)]
        right = memo[id(plan.right)]
        return Estimate(
            left.rows * right.rows,
            left.width + right.width,
            left.work + right.work + left.rows * right.weight + left.weight,
        )
    if isinstance(plan, Join):
        left = memo[id(plan.left)]
        right = memo[id(plan.right)]
        selectivity = None
        if (
            plan.on
            and isinstance(plan.left, Scan)
            and isinstance(plan.right, Scan)
        ):
            # Classical equi-join selectivity 1/max(d(l), d(r)) from
            # measured per-column distinct counts, when available.
            i0, j0 = plan.on[0]
            dl = stats.distincts.get(plan.left.relation, {}).get(i0)
            dr = stats.distincts.get(plan.right.relation, {}).get(j0)
            if dl and dr:
                selectivity = _clamp_selectivity(1.0 / max(dl, dr))
        if selectivity is not None:
            join_rows = left.rows * right.rows * selectivity
        else:
            join_rows = (left.rows * right.rows) / max(
                right.rows, 1
            )  # one match per left row on a key join, heuristically
        return Estimate(
            join_rows,
            left.width + right.width,
            left.work + right.work + left.weight + right.weight + join_rows,
        )
    raise TypeError(f"unknown plan node: {plan!r}")


def choose_plan(
    plan: Plan,
    catalog: Catalog,
    stats: Stats,
    rewriter: Optional[Rewriter] = None,
) -> tuple[Plan, Estimate, Estimate]:
    """Rewrite then keep whichever of (original, rewritten) estimates
    cheaper.  Returns ``(chosen, original_estimate, rewritten_estimate)``.
    """
    rewriter = rewriter or Rewriter(catalog)
    rewritten = rewriter.optimize(plan)
    original_estimate = estimate(plan, stats)
    rewritten_estimate = estimate(rewritten, stats)
    chosen = (
        rewritten
        if rewritten_estimate.work <= original_estimate.work
        else plan
    )
    return chosen, original_estimate, rewritten_estimate
