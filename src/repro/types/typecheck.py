"""Checking complex values against complex value types.

``check_value(v, t)`` decides ``v : t`` for monomorphic complex value
types (Definition 2.1).
"""

from __future__ import annotations

from typing import Optional

from .ast import (
    BOOL,
    FLOAT,
    INT,
    STR,
    BagType,
    BaseType,
    ListType,
    Product,
    SetType,
    Type,
    TypeError_,
)
from .values import CVBag, CVList, CVSet, Tup, Value, is_atom

__all__ = ["check_value", "atom_type"]


def atom_type(v: Value) -> BaseType:
    """The base type of an atom (bool checked before int)."""
    if isinstance(v, bool):
        return BOOL
    if isinstance(v, int):
        return INT
    if isinstance(v, float):
        return FLOAT
    if isinstance(v, str):
        return STR
    raise TypeError_(f"not an atom: {v!r}")


def check_value(v: Value, t: Type, custom_domains: Optional[dict] = None) -> bool:
    """Decide whether complex value ``v`` inhabits type ``t``.

    ``custom_domains`` maps base-type names to membership predicates for
    user-defined base types (e.g. an abstract uninterpreted domain
    realized as tagged strings).
    """
    if isinstance(t, BaseType):
        if custom_domains and t.name in custom_domains:
            return is_atom(v) and custom_domains[t.name](v)
        return is_atom(v) and atom_type(v) == t
    if isinstance(t, Product):
        return (
            isinstance(v, Tup)
            and len(v) == len(t.components)
            and all(
                check_value(item, ct, custom_domains)
                for item, ct in zip(v, t.components)
            )
        )
    if isinstance(t, SetType):
        return isinstance(v, CVSet) and all(
            check_value(item, t.element, custom_domains) for item in v
        )
    if isinstance(t, BagType):
        return isinstance(v, CVBag) and all(
            check_value(item, t.element, custom_domains) for item in v.support()
        )
    if isinstance(t, ListType):
        return isinstance(v, CVList) and all(
            check_value(item, t.element, custom_domains) for item in v
        )
    return False
