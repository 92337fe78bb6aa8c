"""``toset`` and the analogy relation between list and set values.

Section 4.2 relates list values to set values through ``toset`` (the
function forgetting order and multiplicity) and its extension to all
nesting levels; Definition 4.7 then defines when a list value and a set
value of *related* types are **analogous** (``l -->^{l to s} s``):

* base types: equal;
* products: component-wise;
* list vs set: replacing each element of the list by an analogous set
  value gives a list whose ``toset`` is the set;
* functions: analogous inputs go to analogous outputs;
* forall: component-wise at every base type.

For pure complex value types the analogy is a *total surjective
function* from lists to sets (deep ``toset``); for function types it is
partial — e.g. ``head`` has no analogous set function, and neither does
``count`` (two analogous lists of different lengths map to the same
set), which the experiments demonstrate.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..types.ast import (
    BaseType,
    ForAll,
    FuncType,
    ListType,
    Product,
    SetType,
    Type,
    TypeVar,
)
from ..types.values import CVList, CVSet, Tup, Value

__all__ = [
    "toset",
    "deep_toset",
    "analogous",
    "AnalogyError",
]


class AnalogyError(Exception):
    """Raised when the analogy cannot be decided or constructed."""


def toset(l: CVList) -> CVSet:
    """The paper's ``toset``: forget order and multiplicity, one level."""
    return CVSet(l)


def deep_toset(v: Value, t_list: Type) -> Value:
    """Extend ``toset`` through all nesting levels of a complex value
    type — the canonical analogous set value of a list value."""
    if isinstance(t_list, (BaseType, TypeVar)):
        return v
    if isinstance(t_list, Product):
        if not isinstance(v, Tup):
            raise AnalogyError(f"expected a tuple at {t_list}, got {v!r}")
        return Tup(
            deep_toset(item, ct) for item, ct in zip(v, t_list.components)
        )
    if isinstance(t_list, ListType):
        if not isinstance(v, CVList):
            raise AnalogyError(f"expected a list at {t_list}, got {v!r}")
        return CVSet(deep_toset(item, t_list.element) for item in v)
    if isinstance(t_list, SetType):
        if not isinstance(v, CVSet):
            raise AnalogyError(f"expected a set at {t_list}, got {v!r}")
        return CVSet(deep_toset(item, t_list.element) for item in v)
    raise AnalogyError(f"deep_toset undefined at type {t_list}")


def analogous(
    l: Value,
    s: Value,
    t_list: Type,
    sample_inputs: Optional[Sequence[Value]] = None,
) -> bool:
    """Decide Definition 4.7 for value pair ``(l, s)`` at ``t_list``.

    Exact for complex value types.  For function types the definition
    quantifies over all analogous inputs; we check over
    ``sample_inputs`` (list-side inputs of the argument type), raising
    :class:`AnalogyError` when none are supplied.
    """
    if isinstance(t_list, (BaseType, TypeVar)):
        return l == s
    if isinstance(t_list, Product):
        return (
            isinstance(l, Tup)
            and isinstance(s, Tup)
            and len(l) == len(s)
            and all(
                analogous(li, si, ct, sample_inputs)
                for li, si, ct in zip(l, s, t_list.components)
            )
        )
    if isinstance(t_list, (ListType, SetType)):
        try:
            return deep_toset(l, t_list) == s
        except AnalogyError:
            return False
    if isinstance(t_list, FuncType):
        if sample_inputs is None:
            raise AnalogyError(
                "function analogy needs sample inputs for the argument type"
            )
        for x in sample_inputs:
            x_set = deep_toset(x, t_list.arg)
            try:
                lx = l(x)
                sx = s(x_set)
            except Exception:
                return False
            if not analogous(lx, sx, t_list.result, sample_inputs):
                return False
        return True
    if isinstance(t_list, ForAll):
        raise AnalogyError(
            "instantiate polymorphic values before checking analogy"
        )
    raise AnalogyError(f"analogy undefined at type {t_list}")
