"""Type classifiers for the list-to-set transfer (Defs 4.8, 4.10, 4.12).

* **s-to-l** (Def 4.8): no universal quantifiers, and no list
  constructor occurs *under* a function arrow.
* **l-to-s** (Def 4.10): for every ``T1 -> T2`` occurring in the type,
  ``T1`` is s-to-l; no universal quantifiers.
* **LtoS** (Def 4.12): ``forall X1...Xn. T`` with ``T`` l-to-s.

Also provides the *related type* translation ``T^list -> T^set``
(Section 4.2): replacing every list constructor by the set constructor.
"""

from __future__ import annotations

from ..types.ast import (
    BagType,
    ForAll,
    FuncType,
    ListType,
    Product,
    SetType,
    Type,
    strip_foralls,
)

__all__ = [
    "is_s_to_l",
    "is_l_to_s",
    "is_ltos",
    "to_set_type",
]


def _contains_list_under_arrow(t: Type, under_arrow: bool = False) -> bool:
    if isinstance(t, ListType):
        if under_arrow:
            return True
        return _contains_list_under_arrow(t.element, under_arrow)
    if isinstance(t, SetType) or isinstance(t, BagType):
        return _contains_list_under_arrow(t.element, under_arrow)
    if isinstance(t, Product):
        return any(_contains_list_under_arrow(c, under_arrow) for c in t.components)
    if isinstance(t, FuncType):
        return _contains_list_under_arrow(
            t.arg, True
        ) or _contains_list_under_arrow(t.result, True)
    if isinstance(t, ForAll):
        return _contains_list_under_arrow(t.body, under_arrow)
    return False


def _has_forall(t: Type) -> bool:
    if isinstance(t, ForAll):
        return True
    if isinstance(t, Product):
        return any(_has_forall(c) for c in t.components)
    if isinstance(t, (SetType, BagType, ListType)):
        return _has_forall(t.element)
    if isinstance(t, FuncType):
        return _has_forall(t.arg) or _has_forall(t.result)
    return False


def is_s_to_l(t: Type) -> bool:
    """Definition 4.8 membership test."""
    if _has_forall(t):
        return False
    return not _contains_list_under_arrow(t)


def is_l_to_s(t: Type) -> bool:
    """Definition 4.10 membership test."""
    if _has_forall(t):
        return False

    def arrows_ok(node: Type) -> bool:
        if isinstance(node, FuncType):
            return (
                is_s_to_l(node.arg)
                and arrows_ok(node.arg)
                and arrows_ok(node.result)
            )
        if isinstance(node, Product):
            return all(arrows_ok(c) for c in node.components)
        if isinstance(node, (SetType, BagType, ListType)):
            return arrows_ok(node.element)
        return True

    return arrows_ok(t)


def is_ltos(t: Type) -> bool:
    """Definition 4.12: an outermost forall prefix over an l-to-s body."""
    _binders, body = strip_foralls(t)
    return is_l_to_s(body)


def to_set_type(t: Type) -> Type:
    """Replace every list constructor by the set constructor: T^set."""
    if isinstance(t, ListType):
        return SetType(to_set_type(t.element))
    if isinstance(t, SetType):
        return SetType(to_set_type(t.element))
    if isinstance(t, BagType):
        return BagType(to_set_type(t.element))
    if isinstance(t, Product):
        return Product(tuple(to_set_type(c) for c in t.components))
    if isinstance(t, FuncType):
        return FuncType(to_set_type(t.arg), to_set_type(t.result))
    if isinstance(t, ForAll):
        return ForAll(t.var, to_set_type(t.body), t.requires_eq)
    return t
