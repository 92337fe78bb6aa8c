"""Semi-naive delta maintenance of cached plan results.

A cached :class:`~repro.engine.exec.cache.CacheEntry` is a materialized
view of its plan.  When :meth:`~repro.engine.database.Database.insert`
adds rows to a base relation, the classical choice is to *invalidate*
every entry reading that relation — correct, but it turns every write
into a cache catastrophe for serving workloads that interleave inserts
with repeated queries.  The paper's genericity classification (the same
analysis behind the Section 4.4 rewrites, tabulated in
:data:`~repro.optimizer.rules.NODE_MONOTONICITY`) identifies exactly
which operators are *monotone* — distribute over insertions — which is
the licence for semi-naive view maintenance: propagate the delta
``dR`` through the plan instead of recomputing it.

Three maintainability classes (:func:`classify`):

* **delta-monotone** (Scan/Select/Project/Map/Union/Intersect/Product/
  Join) — inserted deltas propagate as ``dout = op(din, ...)``, with
  joins and products probing maintained per-node hash state;
* **semi-maintainable** (Difference) — monotone in its *left* input
  only: a left delta propagates as ``dL - R``, a right delta can
  retract derived rows and forces a recompute of the whole view;
* **opaque** — any node type the table does not know; maintenance
  falls back to invalidation.

:class:`MaintainedView` holds per-node state (value, width-weighted
size, and join probe accounting) for one plan.  The state is
**bootstrapped lazily** on the first maintenance call — one bottom-up
evaluation against the post-insert database, byte-identical to the
reference interpreter by construction — and every later delta is
incremental.  :meth:`MaintainedView.result` regenerates the value,
total work, and the *exact reference postorder ledger* from that state,
so a maintained entry is indistinguishable from a cold recomputation:
the engine's value/work/ledger parity contract extends to
maintained entries (enforced by the ``delta`` fuzz scenario and the
property tests in ``tests/engine/test_delta.py``).

Correctness never regresses: :meth:`~repro.engine.exec.cache.PlanCache.
maintain` wraps every per-entry application in a fallback that drops
the entry on *any* failure (including injected ``"maintenance"``
faults), so the worst case is exactly today's invalidate-then-recompute.
"""

from __future__ import annotations

from typing import Iterable, Mapping as TMapping, Optional

from ...optimizer.plan import (
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
    tuple_weight,
)
from ...optimizer.rules import (
    DELTA_MONOTONE,
    NODE_MONOTONICITY,
    OPAQUE,
    SEMI_MAINTAINABLE,
)
from ...types.values import CVSet, Tup, Value
from .operators import node_label

__all__ = [
    "DeltaError",
    "MaintainabilityReport",
    "MaintainedView",
    "analyze_plan",
    "classify",
    "DELTA_MONOTONE",
    "SEMI_MAINTAINABLE",
    "OPAQUE",
]

_EMPTY = CVSet()


class DeltaError(RuntimeError):
    """A delta cannot be absorbed by a maintained view (right side of a
    difference touched, opaque node, inconsistent state).  The cache's
    maintenance loop treats it like any other failure: invalidate the
    entry and let the next query recompute cold."""


def classify(node: Plan) -> str:
    """The maintainability class of one plan node (by type)."""
    entry = NODE_MONOTONICITY.get(type(node))
    return entry[0] if entry is not None else OPAQUE


def _postorder_unique(plan: Plan) -> list[Plan]:
    """Unique plan nodes, children before parents (explicit stack, safe
    at any depth; shared node objects appear once)."""
    order: list[Plan] = []
    seen: set[int] = set()
    stack: list[tuple[Plan, bool]] = [(plan, False)]
    while stack:
        node, ready = stack.pop()
        if id(node) in seen:
            continue
        if ready:
            seen.add(id(node))
            order.append(node)
            continue
        stack.append((node, True))
        for child in node.children():
            if id(child) not in seen:
                stack.append((child, False))
    return order


class MaintainabilityReport:
    """What :func:`analyze_plan` learned about one plan.

    ``maintainable`` — no opaque nodes anywhere; ``recompute_relations``
    — base relations reachable under the *right* child of any
    Difference: a delta to one of those retracts derived rows, so the
    view must be invalidated instead.  ``classes`` counts nodes per
    maintainability class (surfaced by EXPLAIN).
    """

    __slots__ = ("maintainable", "recompute_relations", "classes")

    def __init__(
        self,
        maintainable: bool,
        recompute_relations: frozenset,
        classes: dict,
    ) -> None:
        self.maintainable = maintainable
        self.recompute_relations = recompute_relations
        self.classes = classes

    def maintainable_for(self, relation: str) -> bool:
        """Can a delta to ``relation`` be absorbed incrementally?"""
        return self.maintainable and relation not in self.recompute_relations

    def __repr__(self) -> str:
        return (
            f"MaintainabilityReport(maintainable={self.maintainable}, "
            f"recompute_relations={sorted(self.recompute_relations)})"
        )


def analyze_plan(plan: Plan) -> MaintainabilityReport:
    """Classify every node of ``plan`` and derive the view's
    maintainability (see :class:`MaintainabilityReport`)."""
    order = _postorder_unique(plan)
    classes: dict[str, int] = {}
    maintainable = True
    # relations read by each unique subtree, for the Difference check.
    reads: dict[int, frozenset] = {}
    recompute: set[str] = set()
    for node in order:
        cls = classify(node)
        classes[cls] = classes.get(cls, 0) + 1
        if cls == OPAQUE:
            maintainable = False
        if isinstance(node, Scan):
            reads[id(node)] = frozenset((node.relation,))
        else:
            children = node.children()
            if len(children) == 1:
                reads[id(node)] = reads[id(children[0])]
            else:
                reads[id(node)] = frozenset().union(
                    *(reads[id(c)] for c in children)
                )
        if isinstance(node, Difference):
            recompute |= reads[id(node.right)]
    return MaintainabilityReport(
        maintainable, frozenset(recompute), classes
    )


class _NodeState:
    """Maintained physical state of one unique plan node: the node's
    current value (a plain set of rows), its width-weighted size, and —
    for keyed joins — the first-column hash indexes of both inputs plus
    the running candidate-probe total the reference charges."""

    __slots__ = ("value", "weight", "left_index", "right_index", "probes")

    def __init__(self) -> None:
        self.value: set = set()
        self.weight: int = 0
        self.left_index: Optional[dict] = None
        self.right_index: Optional[dict] = None
        self.probes: int = 0

    def absorb(self, delta: Iterable[Value]) -> None:
        """Add *new* rows (dedup'd; weight counts distinct rows once)."""
        if not isinstance(delta, (set, frozenset)):
            delta = set(delta)
        self.value.update(delta)
        self.weight += sum(tuple_weight(t) for t in delta)


def _first_col_index(rows: Iterable[Value], col: int) -> dict:
    index: dict = {}
    for t in rows:
        index.setdefault(t[col], []).append(t)
    return index


class MaintainedView:
    """Live per-node state for one cached plan, absorbing insert deltas.

    Construction is O(1) — the maintainability analysis and the state
    bootstrap both happen lazily on first use, so registering a view at
    ``PlanCache.put`` time costs one allocation.
    """

    __slots__ = ("plan", "_report", "_order", "_states")

    def __init__(self, plan: Plan) -> None:
        self.plan = plan
        self._report: Optional[MaintainabilityReport] = None
        self._order: Optional[list[Plan]] = None
        self._states: Optional[dict[int, _NodeState]] = None

    @property
    def report(self) -> MaintainabilityReport:
        if self._report is None:
            self._report = analyze_plan(self.plan)
        return self._report

    def maintainable_for(self, relation: str) -> bool:
        return self.report.maintainable_for(relation)

    # ------------------------------------------------------------------
    # Bootstrap: one bottom-up evaluation, mirroring the reference
    # interpreter's value semantics and probe accounting exactly.

    def _bootstrap(self, db: TMapping[str, CVSet]) -> None:
        order = _postorder_unique(self.plan)
        states: dict[int, _NodeState] = {}
        for node in order:
            st = _NodeState()
            if isinstance(node, Scan):
                st.absorb(db.get(node.relation, _EMPTY))
            elif isinstance(node, Project):
                child = states[id(node.child)].value
                st.absorb({t.project(node.columns) for t in child})
            elif isinstance(node, Select):
                child = states[id(node.child)].value
                st.absorb({t for t in child if node.predicate(t)})
            elif isinstance(node, MapNode):
                child = states[id(node.child)].value
                st.absorb({node.fn(t) for t in child})
            elif isinstance(node, Union):
                left = states[id(node.left)].value
                right = states[id(node.right)].value
                st.absorb(left | right)
            elif isinstance(node, Difference):
                left = states[id(node.left)].value
                right = states[id(node.right)].value
                st.absorb(left - right)
            elif isinstance(node, Intersect):
                left = states[id(node.left)].value
                right = states[id(node.right)].value
                st.absorb(left & right)
            elif isinstance(node, Product):
                left = states[id(node.left)].value
                right = states[id(node.right)].value
                st.absorb(
                    Tup(tuple(a) + tuple(b)) for a in left for b in right
                )
            elif isinstance(node, Join):
                left = states[id(node.left)].value
                right = states[id(node.right)].value
                if node.on:
                    i0, j0 = node.on[0]
                    st.left_index = _first_col_index(left, i0)
                    st.right_index = _first_col_index(right, j0)
                    out = set()
                    probes = 0
                    rest = node.on
                    for a in left:
                        for b in st.right_index.get(a[i0], ()):
                            probes += 1
                            if all(a[i] == b[j] for i, j in rest):
                                out.add(Tup(tuple(a) + tuple(b)))
                    st.probes = probes
                    st.absorb(out)
                else:
                    st.absorb(
                        Tup(tuple(a) + tuple(b))
                        for a in left
                        for b in right
                    )
            else:
                raise DeltaError(
                    f"opaque plan node: {type(node).__name__}"
                )
            states[id(node)] = st
        self._order = order
        self._states = states

    # ------------------------------------------------------------------
    # Incremental application.

    def apply(
        self,
        relation: str,
        delta_rows: Iterable[Value],
        db: TMapping[str, CVSet],
    ) -> None:
        """Absorb an insert of ``delta_rows`` into ``relation``.

        ``db`` is the *post-insert* relation mapping.  The first call
        bootstraps the per-node state from ``db`` (already reflecting
        the delta); later calls propagate the delta node by node.
        Raises :class:`DeltaError` when the delta cannot be absorbed
        (the caller invalidates)."""
        if not self.maintainable_for(relation):
            raise DeltaError(
                f"view is not maintainable for relation {relation!r}"
            )
        if self._states is None:
            self._bootstrap(db)
            return
        states = self._states
        deltas: dict[int, frozenset] = {}
        for node in self._order:
            st = states[id(node)]
            if isinstance(node, Scan):
                if node.relation == relation:
                    # Rows arrive as Tup already (``Database.insert``
                    # normalizes); subtract defensively in case a
                    # caller replays rows the view has seen.
                    dnew = frozenset(delta_rows) - st.value
                else:
                    dnew = frozenset()
            elif isinstance(node, Project):
                din = deltas[id(node.child)]
                dnew = (
                    frozenset(t.project(node.columns) for t in din)
                    - st.value
                )
            elif isinstance(node, Select):
                din = deltas[id(node.child)]
                dnew = frozenset(t for t in din if node.predicate(t))
            elif isinstance(node, MapNode):
                din = deltas[id(node.child)]
                dnew = frozenset(node.fn(t) for t in din) - st.value
            elif isinstance(node, Union):
                dl = deltas[id(node.left)]
                dr = deltas[id(node.right)]
                dnew = (dl | dr) - st.value
            elif isinstance(node, Difference):
                dr = deltas[id(node.right)]
                if dr:
                    raise DeltaError(
                        "right-side delta under difference retracts "
                        "derived rows; view must recompute"
                    )
                dl = deltas[id(node.left)]
                dnew = dl - states[id(node.right)].value
            elif isinstance(node, Intersect):
                dl = deltas[id(node.left)]
                dr = deltas[id(node.right)]
                lv = states[id(node.left)].value
                rv = states[id(node.right)].value
                # Children are already updated, so probing their new
                # values covers the dl&dr corner; new-to-old rows can't
                # collide with the old view (delta rows are new to
                # their side).
                dnew = frozenset(t for t in dl if t in rv) | frozenset(
                    t for t in dr if t in lv
                )
            elif isinstance(node, Product):
                dl = deltas[id(node.left)]
                dr = deltas[id(node.right)]
                lv = states[id(node.left)].value
                rv = states[id(node.right)].value
                out = {
                    Tup(tuple(a) + tuple(b)) for a in dl for b in rv
                }
                if dr:
                    out.update(
                        Tup(tuple(a) + tuple(b))
                        for a in lv
                        if a not in dl
                        for b in dr
                    )
                # Concatenated tuples of different splits can collide
                # with existing rows (mixed-width inputs), so subtract.
                dnew = frozenset(out) - st.value
            elif isinstance(node, Join):
                dnew = self._apply_join(node, st, deltas)
            else:
                raise DeltaError(
                    f"opaque plan node: {type(node).__name__}"
                )
            deltas[id(node)] = dnew
            if dnew:
                st.absorb(dnew)

    def _apply_join(
        self, node: Join, st: _NodeState, deltas: dict
    ) -> frozenset:
        dl = deltas[id(node.left)]
        dr = deltas[id(node.right)]
        if not node.on:
            lv = self._states[id(node.left)].value
            rv = self._states[id(node.right)].value
            out = {Tup(tuple(a) + tuple(b)) for a in dl for b in rv}
            if dr:
                out.update(
                    Tup(tuple(a) + tuple(b))
                    for a in lv
                    if a not in dl
                    for b in dr
                )
            return frozenset(out) - st.value
        i0, j0 = node.on[0]
        on = node.on
        out: set = set()
        probes = 0
        # Old-left x delta-right first (left_index still pre-delta)...
        for b in dr:
            for a in st.left_index.get(b[j0], ()):
                probes += 1
                if all(a[i] == b[j] for i, j in on):
                    out.add(Tup(tuple(a) + tuple(b)))
        for b in dr:
            st.right_index.setdefault(b[j0], []).append(b)
        # ...then delta-left x new-right (right_index now post-delta),
        # covering dl x dr exactly once.
        for a in dl:
            for b in st.right_index.get(a[i0], ()):
                probes += 1
                if all(a[i] == b[j] for i, j in on):
                    out.add(Tup(tuple(a) + tuple(b)))
        for a in dl:
            st.left_index.setdefault(a[i0], []).append(a)
        st.probes += probes
        return frozenset(out) - st.value

    # ------------------------------------------------------------------
    # Materialization: regenerate (value, work, ledger) byte-identical
    # to the reference interpreter's.

    def result(self) -> tuple[CVSet, int, tuple[tuple[str, int], ...]]:
        """The view's current answer in cache-entry form.

        The ledger is rebuilt by a full-occurrence postorder walk (a
        shared subtree logs once per occurrence, exactly like the
        reference interpreter), reading each occurrence's work from the
        maintained per-node state via the reference cost formulas."""
        if self._states is None:
            raise DeltaError("view state not bootstrapped")
        states = self._states
        entries: list[tuple[str, int]] = []
        stack: list[tuple[Plan, bool]] = [(self.plan, False)]
        while stack:
            node, ready = stack.pop()
            if not ready:
                stack.append((node, True))
                for child in reversed(node.children()):
                    stack.append((child, False))
                continue
            entries.append((node_label(node), self._node_work(node)))
        work = sum(w for _, w in entries)
        value = CVSet(frozenset(states[id(self.plan)].value))
        return value, work, tuple(entries)

    def _node_work(self, node: Plan) -> int:
        states = self._states
        if isinstance(node, Scan):
            return 0
        if isinstance(node, (Project, Select, MapNode)):
            return states[id(node.child)].weight
        left = states[id(node.left)]
        right = states[id(node.right)]
        if isinstance(node, (Union, Difference, Intersect)):
            return left.weight + right.weight
        if isinstance(node, Product):
            return len(left.value) * right.weight + left.weight
        if isinstance(node, Join):
            if node.on:
                return left.weight + right.weight + states[id(node)].probes
            return (
                left.weight
                + right.weight
                + len(left.value) * len(right.value)
            )
        raise DeltaError(f"opaque plan node: {type(node).__name__}")

