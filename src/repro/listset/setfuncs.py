"""Set-side analogues of the prelude's list functions.

The paper's running examples: ``#  -->^{l to s}  union`` and the list
``sigma`` analogous to set selection.  These are the set functions whose
parametricity Corollary 4.15 derives from their list counterparts; they
are also exactly the operations the optimizer's rewrite rules are
justified for (Section 4.4).
"""

from __future__ import annotations

from typing import Callable

from ..mappings.function_maps import PolyValue
from ..types.values import CVSet, Tup, Value

__all__ = [
    "set_union",
    "set_filter",
    "set_ins",
    "cardinality",
    "poly",
]


def poly(component: object) -> PolyValue:
    """Wrap a type-uniform implementation as a polymorphic value."""
    from ..types.ast import ForAll, TypeVar

    return PolyValue(lambda _t: component, ForAll("X", TypeVar("X")))


def set_union(pair: Tup) -> CVSet:
    """``union : forall X. {X} * {X} -> {X}`` — analogous to append."""
    left, right = pair
    return left.union(right)


def set_filter(predicate: Callable[[Value], bool]) -> Callable[[CVSet], CVSet]:
    """``sigma : forall X. (X -> bool) -> {X} -> {X}`` (Example 4.14)."""

    def apply(s: CVSet) -> CVSet:
        return CVSet(x for x in s if predicate(x))

    return apply


def set_ins(c: Value) -> Callable[[CVSet], CVSet]:
    """``ins : forall X. X -> {X} -> {X}`` (Section 4.3)."""

    def apply(s: CVSet) -> CVSet:
        return s.add(c)

    return apply


def cardinality(s: CVSet) -> int:
    """``card : {X} -> int`` — the would-be set analogue of ``count``.

    *Not* analogous to ``count`` (Def 4.7 fails on duplicate lists) and
    *not* rel-parametric; the experiments exhibit both failures."""
    return len(s)
