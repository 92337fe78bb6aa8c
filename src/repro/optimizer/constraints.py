"""Schema constraints the rewrite rules consult.

Section 4.4's key example: ``pi_1(R - S) = pi_1(R) - pi_1(S)`` is valid
only when the first column is a key *for R union S* — i.e. the
projection is injective on the instances involved.  The catalog records
declared keys per relation and answers whether a projection is provably
injective over a set of plan inputs.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional, Sequence

from ..types.values import CVSet, Tup
from .plan import Difference, Intersect, Plan, Scan, Select, Union

__all__ = ["RelationInfo", "Catalog", "base_relations", "projection_injective_on"]


@dataclass
class RelationInfo:
    """Declared schema facts for one base relation."""

    name: str
    arity: int
    #: Column-index sets each of which functionally determines the tuple.
    keys: tuple[tuple[int, ...], ...] = ()
    #: Keys declared to hold across a *group* of union-compatible
    #: relations (e.g. a company-wide SSN shared by employees and
    #: students in the paper's example).  Maps key columns to the group
    #: label.
    shared_keys: dict[tuple[int, ...], str] = field(default_factory=dict)


#: Rewrites one catalog remembers: the result cache's default capacity,
#: as for the compiled-code memo.
REWRITE_MEMO_SIZE = 256


class _Rewrite(NamedTuple):
    """One remembered rewrite: holding ``plan`` keeps its ``id`` from
    being reused while the entry lives."""

    plan: Plan
    rules: object
    normal: Plan
    trace: tuple


class Catalog:
    """A set of relation schemas plus constraint queries.

    The catalog also remembers the rewrites made against it.  A rewrite
    reads the plan, the rules and the declared keys, never the data, so
    :meth:`~repro.optimizer.rewriter.Rewriter.optimize` asks
    :meth:`rewrite_of` first and computes a plan object's normal form
    once per rule sequence.  The memo is keyed by plan identity, holds
    the :data:`REWRITE_MEMO_SIZE` most recently used rewrites, and
    :meth:`add` clears it.
    """

    def __init__(self, relations: Iterable[RelationInfo] = ()) -> None:
        self.relations = {r.name: r for r in relations}
        #: ``id(plan) -> _Rewrite``, least recently used first.
        self._rewrites: OrderedDict[int, _Rewrite] = OrderedDict()

    def add(self, info: RelationInfo) -> None:
        self.relations[info.name] = info
        # A newly declared key changes what the rules can prove.
        self._rewrites.clear()

    def rewrite_of(
        self, plan: Plan, rules: object
    ) -> Optional[tuple[Plan, tuple]]:
        """``(normal form, trace)`` remembered for this plan object
        under this rule sequence (both by identity), or ``None``."""
        entry = self._rewrites.get(id(plan))
        if entry is None or entry.plan is not plan or entry.rules is not rules:
            return None
        self._rewrites.move_to_end(id(plan))
        return entry.normal, entry.trace

    def remember_rewrite(
        self, plan: Plan, rules: object, normal: Plan, trace: tuple
    ) -> None:
        """Remember ``plan``'s rewrite under ``rules``, replacing any
        under other rules, and drop the least recently used beyond
        :data:`REWRITE_MEMO_SIZE`."""
        self._rewrites.pop(id(plan), None)
        self._rewrites[id(plan)] = _Rewrite(plan, rules, normal, trace)
        if len(self._rewrites) > REWRITE_MEMO_SIZE:
            self._rewrites.popitem(last=False)

    def __getitem__(self, name: str) -> RelationInfo:
        return self.relations[name]

    def __contains__(self, name: str) -> bool:
        return name in self.relations

    def key_for(self, name: str, columns: Sequence[int]) -> bool:
        """Do ``columns`` contain a declared key of ``name``?"""
        info = self.relations.get(name)
        if info is None:
            return False
        column_set = set(columns)
        return any(set(key) <= column_set for key in info.keys)

    def shared_key_group(
        self, name: str, columns: Sequence[int]
    ) -> Optional[str]:
        """The shared-key group label covering ``columns``, if any."""
        info = self.relations.get(name)
        if info is None:
            return None
        column_set = set(columns)
        for key, group in info.shared_keys.items():
            if set(key) <= column_set:
                return group
        return None


def base_relations(plan: Plan) -> frozenset[str]:
    """Names of all base relations a plan reads.

    Explicit-stack traversal: safe on plans of arbitrary depth."""
    out: set[str] = set()
    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, Scan):
            out.add(node.relation)
        else:
            stack.extend(node.children())
    return frozenset(out)


def _columns_preserved(plan: Plan, columns: Sequence[int]) -> bool:
    """Conservative test: does ``plan`` pass base-relation columns
    through unchanged at the given positions?  True for scans,
    selections and unions of such.  Iterative: selection/union chains
    can be arbitrarily deep."""
    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, Scan):
            continue
        if isinstance(node, Select):
            stack.append(node.child)
        elif isinstance(node, (Union, Difference, Intersect)):
            stack.append(node.left)
            stack.append(node.right)
        else:
            return False
    return True


def projection_injective_on(
    catalog: Catalog, plans: Sequence[Plan], columns: Sequence[int]
) -> bool:
    """Is ``pi_columns`` provably injective across all tuples of the
    given subplans, jointly?

    Sufficient condition implemented (the paper's scenario): every
    subplan passes columns through from base relations, each base
    relation declares a *shared* key inside ``columns``, and all base
    relations involved belong to the same shared-key group — so no two
    distinct tuples anywhere in the union can agree on ``columns``.
    """
    groups: set[str] = set()
    for plan in plans:
        if not _columns_preserved(plan, columns):
            return False
        for name in base_relations(plan):
            group = catalog.shared_key_group(name, columns)
            if group is None:
                return False
            groups.add(group)
    return len(groups) == 1


def check_key_on_instance(
    relation: CVSet, columns: Sequence[int]
) -> bool:
    """Runtime validation that ``columns`` are a key of an instance —
    used by the experiments to confirm declared constraints hold on the
    generated workloads."""
    seen: dict[tuple, Tup] = {}
    for t in relation:
        key = tuple(t[i] for i in columns)
        if key in seen and seen[key] != t:
            return False
        seen[key] = t
    return True
