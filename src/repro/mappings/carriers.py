"""Bounded carrier enumeration for extension relations.

Deciding ``(K -> K')(f, f')`` (Definition 4.2) at *higher-order*
argument types — e.g. the predicate argument of ``sigma : forall X.
(X -> bool) -> {X} -> {X}`` — requires enumerating the related pairs of
``K -> K'`` itself, which in turn requires enumerating all functions
between the finite carriers of the component relations.  This module
computes those carriers, bounded by a :class:`Budget`.

A *carrier* of a relation side is the finite universe of values that
side ranges over: the declared domain for base mappings, all bounded
lists/sets/bags/tuples over component carriers for extensions, and all
finite (dict-backed) functions for function relations.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from ..types.values import CVBag, CVList, CVSet, Tup, Value
from .extensions import (
    BagRelExt,
    BagStrongExt,
    ListRel,
    ProductRel,
    SetRelExt,
    SetStrongExt,
)
from .function_maps import FuncRel
from .mapping import Budget, IdentityRel, Mapping, Rel, Unenumerable

__all__ = ["carrier", "DictFunction", "enumerate_pairs"]

_DEFAULT = Budget()


class DictFunction:
    """A finite function represented by its graph; hashable and callable.

    Used when enumerating "all functions" between finite carriers —
    e.g. all predicates over a small domain.
    """

    def __init__(self, graph: dict) -> None:
        self._graph = dict(graph)
        self._key = frozenset(self._graph.items())

    def __call__(self, x: Value) -> Value:
        return self._graph[x]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DictFunction) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def graph(self) -> dict:
        return dict(self._graph)

    def __repr__(self) -> str:
        items = ", ".join(
            f"{k!r}|->{v!r}" for k, v in sorted(self._graph.items(), key=repr)
        )
        return f"DictFunction({{{items}}})"


def carrier(rel: Rel, side: str, budget: Budget | None = None) -> list[Value]:
    """Enumerate the ``side`` ("left" or "right") carrier of ``rel``.

    Raises :class:`Unenumerable` when the relation gives no finite
    handle on its universe (e.g. identity without a declared carrier).
    """
    b = budget or _DEFAULT
    if isinstance(rel, Mapping):
        values = rel.source_domain if side == "left" else rel.target_domain
        return sorted(values, key=repr)
    if isinstance(rel, IdentityRel):
        if rel.carrier is None:
            raise Unenumerable("identity relation has no declared carrier")
        return sorted(rel.carrier, key=repr)
    if isinstance(rel, ProductRel):
        component_carriers = [carrier(c, side, b) for c in rel.components]
        return [Tup(combo) for combo in itertools.product(*component_carriers)]
    if isinstance(rel, ListRel):
        inner = carrier(rel.inner, side, b)
        out: list[Value] = []
        for length in range(b.max_list_len + 1):
            for combo in itertools.product(inner, repeat=length):
                out.append(CVList(combo))
                if len(out) > b.max_pairs:
                    raise Unenumerable("list carrier exceeds budget")
        return out
    if isinstance(rel, (SetRelExt, SetStrongExt)):
        inner = carrier(rel.inner, side, b)
        out = []
        for size in range(min(b.max_set_size, len(inner)) + 1):
            for combo in itertools.combinations(inner, size):
                out.append(CVSet(combo))
                if len(out) > b.max_pairs:
                    raise Unenumerable("set carrier exceeds budget")
        return out
    if isinstance(rel, (BagRelExt, BagStrongExt)):
        inner = carrier(rel.inner, side, b)
        out = []
        for size in range(b.max_set_size + 1):
            for combo in itertools.combinations_with_replacement(inner, size):
                out.append(CVBag(combo))
                if len(out) > b.max_pairs:
                    raise Unenumerable("bag carrier exceeds budget")
        return out
    if isinstance(rel, FuncRel):
        args = carrier(rel.arg_rel, side, b)
        results = carrier(rel.result_rel, side, b)
        total = len(results) ** len(args) if args else 1
        if total > b.max_pairs:
            raise Unenumerable("function carrier exceeds budget")
        out = []
        for images in itertools.product(results, repeat=len(args)):
            out.append(DictFunction(dict(zip(args, images))))
        return out
    # Inverse wrapper and other relations: try the generic protocol.
    try:
        pairs = list(rel.pairs(b))
    except Unenumerable:
        raise
    index = 0 if side == "left" else 1
    seen: list[Value] = []
    for pair in pairs:
        if pair[index] not in seen:
            seen.append(pair[index])
    return seen


def enumerate_pairs(
    rel: Rel, budget: Budget | None = None
) -> Iterator[tuple[Value, Value]]:
    """All pairs related by ``rel`` between its finite carriers — the
    ``pairs`` protocol for function and bag relations, whose related
    pairs are found by filtering rather than built directly."""
    b = budget or _DEFAULT
    lefts = carrier(rel, "left", b)
    rights = carrier(rel, "right", b)
    if len(lefts) * len(rights) > b.max_pairs:
        raise Unenumerable("pair enumeration exceeds budget")
    for x in lefts:
        for y in rights:
            if rel.holds(x, y, b):
                yield x, y
