"""Queries as first-class typed objects.

The paper treats queries as functions from complex values to complex
values ("databases can be viewed as tuples of complex values", Section
2).  :class:`Query` packages the function with its *type expression* —
input and output types that may contain type variables, so that a query
"defined at all types" (Section 2.3, before Prop 2.11) carries its
polymorphic type, e.g. projection ``{X1 * X2} -> {X1}``.

Queries compose (Proposition 3.1 views operators like union as query
*constructors*); the combinators here are exactly the constructors whose
closure properties Section 3 classifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..types.ast import Product, Type, TypeVar, substitute
from ..types.values import Tup, Value

__all__ = ["Query", "compose", "pair_query"]


@dataclass
class Query:
    """A named, typed query.

    ``input_type`` / ``output_type`` may contain type variables; a query
    whose types share the same variables is *defined at all types* in
    the paper's sense and can be instantiated at any substitution.
    """

    name: str
    fn: Callable[[Value], Value]
    input_type: Type
    output_type: Type
    uses_equality: bool = False
    notes: str = ""

    def __call__(self, v: Value) -> Value:
        return self.fn(v)

    def defined_at_all_types(self) -> bool:
        """True iff the query's type is purely variable-leaved."""
        from ..types.ast import BaseType, subtypes

        def variable_leaved(t: Type) -> bool:
            return not any(isinstance(node, BaseType) for node in subtypes(t))

        return variable_leaved(self.input_type) and variable_leaved(self.output_type)

    def instantiate(self, assignment: dict[str, Type]) -> "Query":
        """Substitute types for the query's type variables."""
        return Query(
            name=self.name,
            fn=self.fn,
            input_type=substitute(self.input_type, assignment),
            output_type=substitute(self.output_type, assignment),
            uses_equality=self.uses_equality,
            notes=self.notes,
        )

    def then(self, other: "Query") -> "Query":
        """Sequential composition ``other after self``."""
        return compose(other, self)

    def __repr__(self) -> str:
        return f"Query({self.name} : {self.input_type} -> {self.output_type})"


def _match_type(pattern: Type, target: Type, subst: dict[str, Type]) -> None:
    """One-way structural matching: bind pattern variables to target
    subtypes.  On a conflicting rebinding the first binding wins — sound
    for genericity checking, where every variable is later instantiated
    at the same base type anyway."""
    from ..types.ast import (
        BagType,
        BaseType,
        FuncType,
        ListType,
        SetType as _SetType,
    )

    if isinstance(pattern, TypeVar):
        subst.setdefault(pattern.name, target)
        return
    if isinstance(pattern, Product) and isinstance(target, Product):
        if len(pattern.components) == len(target.components):
            for p, t in zip(pattern.components, target.components):
                _match_type(p, t, subst)
        return
    for constructor in (_SetType, BagType, ListType):
        if isinstance(pattern, constructor) and isinstance(target, constructor):
            _match_type(pattern.element, target.element, subst)
            return
    if isinstance(pattern, FuncType) and isinstance(target, FuncType):
        _match_type(pattern.arg, target.arg, subst)
        _match_type(pattern.result, target.result, subst)


def compose(outer: Query, inner: Query) -> Query:
    """``outer . inner`` — the composition closure of Proposition 3.1.

    The outer query's type variables are matched against the inner
    query's output type, so the composite's output type tracks the real
    value shapes (e.g. ``RxR . pi_1`` produces pairs of 1-tuples, not
    pairs of atoms)."""
    subst: dict[str, Type] = {}
    _match_type(outer.input_type, inner.output_type, subst)
    output_type = substitute(outer.output_type, subst) if subst else outer.output_type
    return Query(
        name=f"{outer.name}.{inner.name}",
        fn=lambda v: outer.fn(inner.fn(v)),
        input_type=inner.input_type,
        output_type=output_type,
        uses_equality=outer.uses_equality or inner.uses_equality,
    )


def pair_query(first: Query, second: Query) -> Query:
    """Run two queries on the same input, returning the pair of results.

    The glue that lets binary operators (union, difference, ...) act as
    query constructors: ``union_op . pair_query(q1, q2)``.
    """
    return Query(
        name=f"<{first.name},{second.name}>",
        fn=lambda v: Tup((first.fn(v), second.fn(v))),
        input_type=first.input_type,
        output_type=Product((first.output_type, second.output_type)),
        uses_equality=first.uses_equality or second.uses_equality,
    )
