"""Hierarchical execution tracing: spans and the :class:`Tracer`.

A **span** mirrors one plan-node occurrence in one execution: its
operator label (the reference interpreter's ledger label), the rows it
produced, the work it was charged, wall time, and whether it was
served by the result cache or the CSE memo.  Span trees mirror the
executor's frame/ledger structure exactly — a subtree served from the
cache is a single childless span carrying the subtree's as-if work,
just as the ledger splices the stored entries.

The tracing contract, pinned by ``tests/obs/test_trace_properties.py``
and the ``trace`` fuzz scenario:

* **zero overhead when disabled** — every executor takes
  ``tracer=None`` by default and touches no tracing code on that path;
* **observer effect zero** — a traced run returns the identical value,
  work, ledger, and leaves the identical cache contents as an untraced
  run;
* **determinism modulo wall time** — for a fixed plan, database and
  cache state, everything in a span except ``wall_s`` is deterministic:
  structure, labels, rows, work and cache annotations are identical
  across runs.

Wall-time attribution is best-effort and executor-specific: the
reference interpreter reports per-operator compute time (children
excluded); the compiled executor times its steps as one run, so only
its root span carries wall time.  Use ``work`` for cross-executor
comparisons; ``wall_s`` for profiling one executor.

All tree walks are explicit-stack: span trees mirror plan trees, which
can be thousands of levels deep.
"""

from __future__ import annotations

from typing import Iterator, Optional

__all__ = ["Span", "Tracer"]


class Span:
    """One plan-node occurrence in one traced execution.

    ``rows`` is the number of *distinct* tuples the node produced
    (``None`` when unknowable; both executors count it at every plan
    node).  ``work`` is exactly the node's ledger charge; for a
    cache/CSE-served span it is the whole subtree's as-if work, so
    summing ``work`` over any span tree reproduces the execution's
    total work.  ``cache`` is ``None`` (not applicable), ``"hit"``,
    ``"miss"``, or ``"cse"`` (served by the in-plan subtree memo).
    """

    __slots__ = ("label", "work", "rows", "wall_s", "cache", "children",
                 "meta")

    def __init__(self, label: str) -> None:
        self.label = label
        self.work = 0
        self.rows: Optional[int] = None
        self.wall_s = 0.0
        self.cache: Optional[str] = None
        self.children: list["Span"] = []
        #: Free-form deterministic annotations (e.g. the degradation
        #: record on a root span); ``None`` stays out of ``to_dict``
        #: and is never part of ``structure()``.
        self.meta: Optional[dict] = None

    def merge_meta(self, updates: dict) -> None:
        """Merge ``updates`` into ``meta`` without clobbering keys some
        other layer already attached (the executor's own annotations
        and a degradation record coexist on the root)."""
        if self.meta is None:
            self.meta = dict(updates)
        else:
            self.meta.update(updates)

    def walk(self) -> Iterator["Span"]:
        """Preorder iterator over the span tree (explicit stack)."""
        stack = [self]
        while stack:
            span = stack.pop()
            yield span
            stack.extend(reversed(span.children))

    def total_work(self) -> int:
        """Sum of per-span work — equals the execution's total work."""
        return sum(span.work for span in self.walk())

    def span_count(self) -> int:
        return sum(1 for _ in self.walk())

    def structure(self) -> tuple:
        """A hashable, wall-time-free digest of the span tree: one
        ``(label, rows, work, cache, child-count)`` entry per node, in
        preorder.  Preorder plus child counts determines the tree
        uniquely, and the digest is *flat* — nested tuples mirroring a
        plan thousands of levels deep would overflow the interpreter's
        recursion limit just being compared or hashed.

        Excludes ``wall_s`` (nondeterministic), so two runs that agree
        observationally have equal structures.
        """
        return tuple(
            (span.label, span.rows, span.work, span.cache,
             len(span.children))
            for span in self.walk()
        )

    def to_dict(self, *, wall: bool = True) -> dict:
        """JSON-ready nested dict; ``wall=False`` drops the only
        nondeterministic field, making output byte-comparable."""
        memo: dict[int, dict] = {}
        stack: list[tuple[Span, bool]] = [(self, False)]
        while stack:
            span, ready = stack.pop()
            if not ready:
                stack.append((span, True))
                for child in reversed(span.children):
                    stack.append((child, False))
                continue
            entry: dict = {"op": span.label, "rows": span.rows,
                           "work": span.work}
            if wall:
                entry["wall_s"] = span.wall_s
            if span.cache is not None:
                entry["cache"] = span.cache
            if span.meta is not None:
                entry["meta"] = span.meta
            entry["children"] = [memo[id(c)] for c in span.children]
            memo[id(span)] = entry
        return memo[id(self)]

    def __repr__(self) -> str:
        return (f"Span({self.label!r}, rows={self.rows}, work={self.work}, "
                f"children={len(self.children)})")


class Tracer:
    """Collects one root span per traced execution.

    Pass a ``Tracer`` to ``execute_reference``/``execute_compiled``/
    ``Database.run`` via the ``tracer=`` kwarg; the
    executor records the finished span tree here.  A single tracer can
    observe many executions (``traces`` keeps them in order); ``last``
    is the most recent root span.
    """

    __slots__ = ("traces",)

    def __init__(self) -> None:
        self.traces: list[Span] = []

    def record(self, root: Span) -> Span:
        self.traces.append(root)
        return root

    @property
    def last(self) -> Optional[Span]:
        return self.traces[-1] if self.traces else None

    def clear(self) -> None:
        self.traces.clear()

    def __len__(self) -> int:
        return len(self.traces)

    def __repr__(self) -> str:
        return f"Tracer(traces={len(self.traces)})"
