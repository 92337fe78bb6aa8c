"""Nested-relational / complex-value operations.

The paper's Section 4 works over nested sets; these operators supply the
nested side of the catalog: powerset (the language of [1, 4, 5] the
paper says its L-to-S types cover), unnest, singleton and flatten (the
monad structure of the monadic algebra of [5]), plus the
``nest parity`` query of Proposition 4.16 — the paper's example of a
query that is *fully generic but not parametric*.
"""

from __future__ import annotations

import itertools

from ..types.ast import BOOL, Product, SetType, TypeVar
from ..types.values import CVSet, Tup, Value, value_depth
from .query import Query

__all__ = [
    "powerset",
    "unnest",
    "singleton",
    "flatten",
    "nest_parity",
]


def powerset() -> Query:
    """``powerset(R)`` — all subsets of R, as a set of sets.

    Polymorphic type ``{X} -> {{X}}``; fully generic (it is definable in
    the quantifier-only fragment of the monadic algebra)."""
    x = TypeVar("X")

    def fn(r: Value) -> Value:
        items = sorted(r, key=repr)
        return CVSet(
            CVSet(combo)
            for size in range(len(items) + 1)
            for combo in itertools.combinations(items, size)
        )

    return Query(
        name="powerset",
        fn=fn,
        input_type=SetType(x),
        output_type=SetType(SetType(x)),
    )


def unnest(set_column: int, arity: int) -> Query:
    """``mu`` — flatten an inner set column back into tuples."""

    def fn(r: Value) -> Value:
        out = set()
        for t in r:
            inner = t[set_column]
            rest = tuple(t[i] for i in range(len(t)) if i != set_column)
            for member in inner:
                member_items = tuple(member) if isinstance(member, Tup) else (member,)
                out.add(Tup(rest + member_items))
        return CVSet(out)

    variables = tuple(TypeVar(f"X{i + 1}") for i in range(arity))
    inner_var = TypeVar("Y")
    input_components = list(variables)
    input_components[set_column] = SetType(inner_var)
    output_components = [v for i, v in enumerate(variables) if i != set_column]
    output_components.append(inner_var)
    return Query(
        name=f"unnest[{set_column}]",
        fn=fn,
        input_type=SetType(Product(tuple(input_components))),
        output_type=SetType(Product(tuple(output_components))),
    )


def singleton() -> Query:
    """``eta`` — the monad unit ``x |-> {x}``; fully generic."""
    x = TypeVar("X")
    return Query(
        name="singleton",
        fn=lambda v: CVSet((v,)),
        input_type=x,
        output_type=SetType(x),
    )


def flatten() -> Query:
    """``mu`` — the monad multiplication ``{{X}} -> {X}``; fully generic."""
    x = TypeVar("X")

    def fn(r: Value) -> Value:
        out = set()
        for inner in r:
            out |= set(inner)
        return CVSet(out)

    return Query(
        name="flatten",
        fn=fn,
        input_type=SetType(SetType(x)),
        output_type=SetType(x),
    )


def nest_parity() -> Query:
    """``np`` of Proposition 4.16: true iff the nesting depth is even.

    It inspects only the *structure* of the value, never the elements,
    so it is fully generic — yet it cannot be parametric at any type
    ``forall X. {^n X}^n -> bool`` because parametricity relates values
    of *different* structures."""

    def fn(v: Value) -> Value:
        return value_depth(v) % 2 == 0

    x = TypeVar("X")
    return Query(
        name="nest_parity",
        fn=fn,
        input_type=SetType(x),  # nominal; np is untyped/structural
        output_type=BOOL,
        notes="structural query: fully generic, not parametric (Prop 4.16)",
    )
