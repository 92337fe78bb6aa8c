"""Process-wide metrics: named counters.

A :class:`MetricsRegistry` is a plain in-process aggregation point —
no background threads, no clocks, no I/O.  Its one instrument is the
**counter**, a monotonically increasing integer (``counter``).

Snapshots are plain nested dicts with sorted keys — picklable across
process boundaries and byte-comparable after ``json.dumps``.  The
parallel harness (:func:`repro.parallel.parallel_map` with
``merge_metrics=True``) ships each worker chunk's snapshot *delta*
back to the parent and folds it into the parent's registry, so counter
totals are identical between ``jobs=1`` and ``jobs=N`` runs (sums
commute).

``REGISTRY`` is the process-wide default; the module-level ``counter``
helper writes to it.
"""

from __future__ import annotations

__all__ = [
    "MetricsRegistry",
    "REGISTRY",
    "counter",
    "snapshot_delta",
]


class MetricsRegistry:
    """Named counters, mergeable."""

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}

    def counter(self, name: str, amount: int = 1) -> int:
        value = self._counters.get(name, 0) + amount
        self._counters[name] = value
        return value

    def snapshot(self) -> dict:
        """Deterministic plain-dict view: ``{"counters": {name: total}}``
        with sorted names."""
        return {
            "counters": {n: self._counters[n] for n in sorted(self._counters)},
        }

    def merge(self, snapshot: dict) -> None:
        """Fold another registry's snapshot (or delta) into this one:
        counters add, so the result is independent of merge order."""
        for name, amount in snapshot.get("counters", {}).items():
            self.counter(name, amount)

    def clear(self) -> None:
        self._counters.clear()

    def render(self) -> str:
        """Human-readable dump (deterministic line order)."""
        return "\n".join(
            f"counter   {name} = {value}"
            for name, value in self.snapshot()["counters"].items()
        )

    def __repr__(self) -> str:
        return f"MetricsRegistry(counters={len(self._counters)})"


def snapshot_delta(after: dict, before: dict) -> dict:
    """What happened between two snapshots of the *same* registry.

    Counters subtract, and counters that did not move are dropped.
    The worker side of ``parallel_map(merge_metrics=True)`` ships
    deltas, not absolutes, so a reused worker process never
    double-reports earlier chunks.
    """
    prior = before.get("counters", {})
    counters = {}
    for name, value in after.get("counters", {}).items():
        diff = value - prior.get(name, 0)
        if diff:
            counters[name] = diff
    return {"counters": counters}


#: The process-wide default registry.
REGISTRY = MetricsRegistry()


def counter(name: str, amount: int = 1) -> int:
    return REGISTRY.counter(name, amount)
