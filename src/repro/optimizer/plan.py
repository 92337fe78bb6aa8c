"""Logical query plans.

A small algebraic plan IR over named relations, with an interpreter
that *counts work* (tuples consumed per operator) so the optimization
experiments can report measured cost reductions, not just estimates.

Plans are immutable; rewrites build new trees.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Mapping as TMapping, Optional, Sequence

from ..obs.trace import Span, Tracer
from ..types.values import CVSet, Tup, Value

__all__ = [
    "Plan",
    "Scan",
    "Project",
    "Select",
    "Union",
    "Difference",
    "Intersect",
    "Product",
    "Join",
    "MapNode",
    "ExecutionResult",
    "execute",
    "execute_reference",
    "tuple_weight",
]


@dataclass(frozen=True, eq=False)
class Plan:
    """Abstract plan node.

    Equality and hashing are structural (callables compare by their
    declared *name*, see :class:`Select`/:class:`MapNode`) but are
    implemented without recursion: the hash is computed once at
    construction from the children's cached hashes (plans are built
    bottom-up, so this is O(1) per node), and ``__eq__`` walks an
    explicit stack.  Plans thousands of levels deep can therefore be
    hashed, compared, and used as dict keys without ``RecursionError``.
    """

    def children(self) -> tuple["Plan", ...]:
        return ()

    def with_children(self, children: tuple["Plan", ...]) -> "Plan":
        if children:
            raise ValueError(f"{type(self).__name__} takes no children")
        return self

    def _scalar_key(self) -> tuple:
        """The node's non-child compared fields (callables excluded)."""
        return ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "_hash",
            hash(
                (
                    type(self).__name__,
                    self._scalar_key(),
                    tuple(hash(c) for c in self.children()),
                )
            ),
        )

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Plan):
            return NotImplemented
        if self._hash != other._hash:  # type: ignore[attr-defined]
            return False
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a is None or b is None:
                return False
            if type(a) is not type(b) or a._scalar_key() != b._scalar_key():
                return False
            ca, cb = a.children(), b.children()
            if len(ca) != len(cb):
                return False
            stack.extend(zip(ca, cb))
        return True


@dataclass(frozen=True, eq=False)
class Scan(Plan):
    """Read a named base relation."""

    relation: str

    def _scalar_key(self) -> tuple:
        return (self.relation,)

    def __str__(self) -> str:
        return self.relation


@dataclass(frozen=True, eq=False)
class Project(Plan):
    """``pi_cols`` (0-based column indices), set semantics."""

    columns: tuple[int, ...]
    child: Plan

    def _scalar_key(self) -> tuple:
        return (self.columns,)

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def with_children(self, children: tuple[Plan, ...]) -> "Project":
        (child,) = children
        return Project(self.columns, child)

    def __str__(self) -> str:
        cols = ",".join(str(c + 1) for c in self.columns)
        return f"pi[{cols}]({self.child})"


@dataclass(frozen=True, eq=False)
class Select(Plan):
    """``sigma_p``; the predicate is named so rules can reason about it."""

    predicate_name: str
    predicate: Callable[[Tup], bool] = field(compare=False)
    child: Plan = field(default=None)  # type: ignore[assignment]

    def _scalar_key(self) -> tuple:
        return (self.predicate_name,)

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def with_children(self, children: tuple[Plan, ...]) -> "Select":
        (child,) = children
        return Select(self.predicate_name, self.predicate, child)

    def __str__(self) -> str:
        return f"sigma[{self.predicate_name}]({self.child})"


@dataclass(frozen=True, eq=False)
class Union(Plan):
    left: Plan
    right: Plan

    def children(self) -> tuple[Plan, ...]:
        return (self.left, self.right)

    def with_children(self, children: tuple[Plan, ...]) -> "Union":
        left, right = children
        return Union(left, right)

    def __str__(self) -> str:
        return f"({self.left} U {self.right})"


@dataclass(frozen=True, eq=False)
class Difference(Plan):
    left: Plan
    right: Plan

    def children(self) -> tuple[Plan, ...]:
        return (self.left, self.right)

    def with_children(self, children: tuple[Plan, ...]) -> "Difference":
        left, right = children
        return Difference(left, right)

    def __str__(self) -> str:
        return f"({self.left} - {self.right})"


@dataclass(frozen=True, eq=False)
class Intersect(Plan):
    left: Plan
    right: Plan

    def children(self) -> tuple[Plan, ...]:
        return (self.left, self.right)

    def with_children(self, children: tuple[Plan, ...]) -> "Intersect":
        left, right = children
        return Intersect(left, right)

    def __str__(self) -> str:
        return f"({self.left} & {self.right})"


@dataclass(frozen=True, eq=False)
class Product(Plan):
    left: Plan
    right: Plan

    def children(self) -> tuple[Plan, ...]:
        return (self.left, self.right)

    def with_children(self, children: tuple[Plan, ...]) -> "Product":
        left, right = children
        return Product(left, right)

    def __str__(self) -> str:
        return f"({self.left} x {self.right})"


@dataclass(frozen=True, eq=False)
class Join(Plan):
    """Equi-join on column index pairs ``on = ((i, j), ...)``."""

    on: tuple[tuple[int, int], ...]
    left: Plan = field(default=None)  # type: ignore[assignment]
    right: Plan = field(default=None)  # type: ignore[assignment]

    def _scalar_key(self) -> tuple:
        return (self.on,)

    def children(self) -> tuple[Plan, ...]:
        return (self.left, self.right)

    def with_children(self, children: tuple[Plan, ...]) -> "Join":
        left, right = children
        return Join(self.on, left, right)

    def __str__(self) -> str:
        return f"({self.left} |x|{list(self.on)} {self.right})"


@dataclass(frozen=True, eq=False)
class MapNode(Plan):
    """``map(f)`` over tuples; ``injective`` is declared metadata the
    rules may rely on (Section 4.4's key-based pushes)."""

    fn_name: str
    fn: Callable[[Tup], Value] = field(compare=False)
    child: Plan = field(default=None)  # type: ignore[assignment]
    injective: bool = False

    def _scalar_key(self) -> tuple:
        return (self.fn_name, self.injective)

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def with_children(self, children: tuple[Plan, ...]) -> "MapNode":
        (child,) = children
        return MapNode(self.fn_name, self.fn, child, self.injective)

    def __str__(self) -> str:
        return f"map[{self.fn_name}]({self.child})"


def tuple_weight(t: Value) -> int:
    """Per-tuple width weight: atoms consumed when reading one tuple.

    The compiled executor (:mod:`repro.engine.exec`) charges this per
    tuple when it cannot hoist weights to ``count * width``, matching
    :func:`_weight` below so both executors report costs under the
    identical work model."""
    try:
        return max(len(t), 1)
    except TypeError:  # atoms produced by map(f) weigh 1
        return 1


def _weight(relation: CVSet) -> int:
    """Width-weighted size: total atoms consumed when reading a relation.

    Using atoms rather than tuple counts makes the benefit of early
    projection visible — narrower intermediate results are cheaper for
    every downstream operator, which is the practical content of the
    Section 4.4 rewrites.  Charged via :func:`tuple_weight` so relations
    holding bare atoms (``map(f)`` outputs) weigh 1 per atom instead of
    raising ``TypeError``."""
    return sum(tuple_weight(t) for t in relation)


@dataclass
class ExecutionResult:
    """A query answer plus the work (tuples consumed) per operator."""

    value: CVSet
    work: int
    per_node: list[tuple[str, int]] = field(default_factory=list)


def _eval_node(
    node: Plan,
    inputs: Sequence[tuple[CVSet, int]],
    db: TMapping[str, CVSet],
    log: list[tuple[str, int]],
) -> tuple[CVSet, int]:
    """Evaluate one node given its children's (value, cost) results."""
    if isinstance(node, Scan):
        relation = db.get(node.relation, CVSet())
        log.append((str(node), 0))
        return relation, 0
    if isinstance(node, Project):
        (child, cost) = inputs[0]
        work = _weight(child)
        log.append((f"pi{node.columns}", work))
        return (
            CVSet(t.project(node.columns) for t in child),
            cost + work,
        )
    if isinstance(node, Select):
        (child, cost) = inputs[0]
        work = _weight(child)
        log.append((f"sigma[{node.predicate_name}]", work))
        return CVSet(t for t in child if node.predicate(t)), cost + work
    if isinstance(node, MapNode):
        (child, cost) = inputs[0]
        work = _weight(child)
        log.append((f"map[{node.fn_name}]", work))
        return CVSet(node.fn(t) for t in child), cost + work
    if isinstance(node, Union):
        (left, lcost), (right, rcost) = inputs
        work = _weight(left) + _weight(right)
        log.append(("union", work))
        return left.union(right), lcost + rcost + work
    if isinstance(node, Difference):
        (left, lcost), (right, rcost) = inputs
        work = _weight(left) + _weight(right)
        log.append(("difference", work))
        return left.difference(right), lcost + rcost + work
    if isinstance(node, Intersect):
        (left, lcost), (right, rcost) = inputs
        work = _weight(left) + _weight(right)
        log.append(("intersect", work))
        return left.intersection(right), lcost + rcost + work
    if isinstance(node, Product):
        (left, lcost), (right, rcost) = inputs
        work = len(left) * _weight(right) + _weight(left)
        log.append(("product", work))
        out = CVSet(
            Tup(tuple(a) + tuple(b)) for a in left for b in right
        )
        return out, lcost + rcost + work
    if isinstance(node, Join):
        (left, lcost), (right, rcost) = inputs
        # Hash join on the first join column pair.
        work = _weight(left) + _weight(right)
        out = set()
        if node.on:
            i0, j0 = node.on[0]
            index: dict[Value, list[Tup]] = {}
            for b in right:
                index.setdefault(b[j0], []).append(b)
            for a in left:
                for b in index.get(a[i0], ()):
                    work += 1
                    if all(a[i] == b[j] for i, j in node.on):
                        out.add(Tup(tuple(a) + tuple(b)))
        else:
            work += len(left) * len(right)
            out = {
                Tup(tuple(a) + tuple(b)) for a in left for b in right
            }
        log.append((f"join{node.on}", work))
        return CVSet(out), lcost + rcost + work
    raise TypeError(f"unknown plan node: {node!r}")


def execute(
    plan: Plan,
    db: TMapping[str, CVSet],
    *,
    tracer: Optional[Tracer] = None,
) -> ExecutionResult:
    """Evaluate ``plan`` over ``db``, counting tuples consumed.

    Work accounting: every operator pays one unit per input tuple it
    consumes (products/joins pay per considered pair), matching the
    usual tuple-at-a-time cost intuition.

    The traversal is an explicit-stack postorder, not recursion, so
    plans of arbitrary depth evaluate without ``RecursionError``; the
    per-node log order (children left-to-right, then the node) is
    identical to the old recursive interpreter's.

    ``tracer`` (a :class:`~repro.obs.trace.Tracer`) records one span
    per plan node — label and work straight from the ledger, rows from
    the materialized result, wall time per operator (children
    excluded).  ``None`` touches no tracing code.
    """
    log: list[tuple[str, int]] = []
    stack: list[tuple[Plan, bool]] = [(plan, False)]
    results: list[tuple[CVSet, int]] = []
    # Span stack paralleling ``results``; None is the disabled path.
    spans: Optional[list[Span]] = [] if tracer is not None else None
    while stack:
        node, ready = stack.pop()
        if not isinstance(node, Plan):
            raise TypeError(f"unknown plan node: {node!r}")
        if not ready:
            stack.append((node, True))
            for child in reversed(node.children()):
                stack.append((child, False))
            continue
        n = len(node.children())
        if n:
            inputs = results[-n:]
            del results[-n:]
        else:
            inputs = []
        if spans is None:
            results.append(_eval_node(node, inputs, db, log))
        else:
            child_spans = spans[-n:] if n else []
            if n:
                del spans[-n:]
            start = time.perf_counter()
            result = _eval_node(node, inputs, db, log)
            wall = time.perf_counter() - start
            results.append(result)
            label, work = log[-1]
            span = Span(label)
            span.wall_s = wall
            span.work = work
            span.rows = len(result[0])
            span.children = child_spans
            spans.append(span)
    value, work = results.pop()
    if tracer is not None:
        tracer.record(spans.pop())
    return ExecutionResult(value=value, work=work, per_node=log)


#: The tuple-at-a-time recursive interpreter above is the *semantic
#: reference*: every physical executor (see :mod:`repro.engine.exec`)
#: must return the same ``CVSet`` and the same work counts.
execute_reference = execute
