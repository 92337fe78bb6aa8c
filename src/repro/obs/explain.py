"""EXPLAIN ANALYZE: render a completed trace as a per-operator tree.

:func:`explain` executes a plan under a :class:`~repro.obs.trace.Tracer`
in one of the executor modes (``"compiled"`` or ``"reference"``) and
packages the result as an :class:`ExplainReport` — the answer, the span
tree, and the cache activity the execution caused.  Rendered as text (a
tree with per-operator rows/work/cache annotations, wall time optional)
or as JSON (``to_dict``, with ``wall=False`` for byte-deterministic
output).

``db`` may be a plain relation mapping or a
:class:`~repro.engine.database.Database`.  A ``Database`` runs through
``Database.run``, so EXPLAIN sees its result cache (real hits and
misses — pass ``use_cache=False`` for a pure cold run) and any
graceful-degradation fallbacks.  A plain mapping carries none of that
and runs on the reference interpreter.

CLI: ``python -m repro explain [PLAN] [--mode all|compiled|reference]
[--json] [--warm N]`` (see :mod:`repro.cli`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .trace import Span, Tracer

__all__ = ["MODES", "ExplainReport", "explain", "render_span_tree"]

#: Executor modes :func:`explain` understands, in canonical order.
MODES = ("reference", "compiled")


def _span_line(span: Span, *, wall: bool) -> str:
    parts = [span.label]
    fields = []
    if span.rows is not None:
        fields.append(f"rows={span.rows}")
    fields.append(f"work={span.work}")
    if span.cache is not None:
        fields.append(f"cache={span.cache}")
    if wall:
        fields.append(f"wall={span.wall_s * 1e3:.3f}ms")
    parts.append("  [" + " ".join(fields) + "]")
    return "".join(parts)


def render_span_tree(root: Span, *, wall: bool = True) -> str:
    """The span tree as indented text (explicit stack, any depth)."""
    lines: list[str] = []
    # (span, this line's branch prefix, the prefix its children extend)
    stack: list[tuple[Span, str, str]] = [(root, "", "")]
    while stack:
        span, branch, child_prefix = stack.pop()
        lines.append(branch + _span_line(span, wall=wall))
        last_index = len(span.children) - 1
        for i in range(last_index, -1, -1):
            connector = "└─ " if i == last_index else "├─ "
            extension = "   " if i == last_index else "│  "
            stack.append((
                span.children[i],
                child_prefix + connector,
                child_prefix + extension,
            ))
    return "\n".join(lines)


@dataclass
class ExplainReport:
    """One traced execution: mode, plan text, answer stats, span tree,
    and the cache-counter delta the execution caused (``None`` when no
    cache was attached)."""

    mode: str
    plan: str
    rows: int
    work: int
    root: Span
    cache_stats: Optional[dict] = None
    #: Graceful-degradation events (``Database.run`` fallbacks), each
    #: ``{"mode", "to", "error"}`` — why a mode was not used.
    degraded: Optional[list] = None

    def to_dict(self, *, wall: bool = True) -> dict:
        out = {
            "mode": self.mode,
            "plan": self.plan,
            "rows": self.rows,
            "work": self.work,
            "tree": self.root.to_dict(wall=wall),
        }
        if self.cache_stats is not None:
            out["cache"] = self.cache_stats
        if self.degraded is not None:
            out["degraded"] = self.degraded
        return out

    def render(self, *, wall: bool = True) -> str:
        header = (
            f"EXPLAIN ANALYZE (mode={self.mode}) {self.plan}\n"
            f"rows={self.rows} work={self.work}"
        )
        if self.cache_stats is not None:
            header += (
                f" cache[hits={self.cache_stats['hits']}"
                f" misses={self.cache_stats['misses']}"
                f" puts={self.cache_stats['puts']}"
                f" refused={self.cache_stats['refused']}]"
            )
        if self.degraded:
            for event in self.degraded:
                header += (
                    f"\ndegraded: {event['mode']} -> {event['to']}"
                    f" ({event['error']})"
                )
        return header + "\n" + render_span_tree(self.root, wall=wall)


def explain(plan, db, mode: str = "compiled", *, use_cache: bool = True,
            tracer: Optional[Tracer] = None) -> ExplainReport:
    """Execute ``plan`` over ``db`` with tracing on; return the report.

    ``db`` is a relation mapping or a ``Database``.  A ``Database``
    runs the plan through ``Database.run(plan, mode=mode)``; with
    ``use_cache`` the report carries the delta of its plan cache's
    hits, misses, puts, refused puts and evictions.  A plain mapping
    has no cache and no compiler state, so it runs on the reference
    interpreter and the report says ``mode="reference"``.  Pass your own ``tracer`` to keep the raw
    span for further inspection.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    tracer = tracer if tracer is not None else Tracer()

    cache = None
    if hasattr(db, "run"):
        cache = db.plan_cache if use_cache else None
        before = cache.stats() if cache is not None else None
        result = db.run(plan, mode=mode, use_cache=use_cache, tracer=tracer)
    else:
        # Imported here so `repro.obs` stays import-light (no engine
        # dependency at module import time).
        from ..optimizer.plan import execute_reference

        mode = "reference"
        result = execute_reference(plan, db, tracer=tracer)
    degraded = None
    if tracer.last is not None and tracer.last.meta is not None:
        degraded = tracer.last.meta.get("degraded")
    cache_stats = None
    if cache is not None:
        after = cache.stats()
        cache_stats = {
            key: after[key] - before[key]
            for key in ("hits", "misses", "puts", "refused", "evictions")
        }
        cache_stats["entries"] = after["entries"]
    return ExplainReport(
        mode=mode,
        plan=str(plan),
        rows=len(result.value),
        work=result.work,
        root=tracer.last,
        cache_stats=cache_stats,
        degraded=degraded,
    )
