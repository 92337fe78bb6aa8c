"""The (flat) relational operator catalog classified by the paper.

Section 3 classifies relational algebra / calculus operations by their
genericity.  This module implements each operation the paper mentions as
a typed :class:`~repro.algebra.query.Query` so the genericity machinery
can test it:

* the fully generic core: projection, cross product, union, identity
  (Prop 3.1 / Cor 3.2);
* equality-using operations: selection ``sigma $i=$j``, intersection,
  difference, ``R o R`` composition (Example 2.2's Q1);
* Chandra's variant ``sigma-hat`` which uses equality in the query but
  eliminates it from the output (Prop 3.6);
* the constant-using selection ``sigma $i=c`` (Section 2.4);
* domain-sensitive operations: ``eq_adom`` (Prop 3.5), complement
  (Section 3.3), ``even`` (Lemma 2.12).

Relations are sets of tuples: ``CVSet`` of ``Tup``.  A *database* input
for a binary operator is the pair ``Tup((R, S))``.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Sequence

from ..types.ast import (
    BOOL,
    BaseType,
    Product,
    SetType,
    Type,
    TypeVar,
)
from ..types.values import CVSet, Tup, Value, atoms_of
from .query import Query

__all__ = [
    "projection",
    "select_eq",
    "hat_select_eq",
    "select_const",
    "union_op",
    "intersection_op",
    "difference_op",
    "cross_op",
    "self_cross",
    "self_compose",
    "eq_adom",
    "even_query",
    "identity_query",
    "full_complement",
]


def _vars(arity: int) -> tuple[TypeVar, ...]:
    return tuple(TypeVar(f"X{i + 1}") for i in range(arity))


def _single_var_rel(arity: int, var: str = "X") -> SetType:
    """Relation type over a single repeated variable: ``{X * ... * X}``."""
    return SetType(Product(tuple(TypeVar(var) for _ in range(arity))))


def projection(indices: Sequence[int], arity: int) -> Query:
    """``Pi_{i1,...,ik}`` — fully generic for both modes (Prop 3.1)."""
    indices = tuple(indices)
    all_vars = _vars(arity)

    def fn(r: Value) -> Value:
        return CVSet(t.project(indices) for t in r)

    return Query(
        name=f"pi[{','.join(str(i + 1) for i in indices)}]",
        fn=fn,
        input_type=SetType(Product(all_vars)),
        output_type=SetType(Product(tuple(all_vars[i] for i in indices))),
    )


def select_eq(i: int, j: int, arity: int) -> Query:
    """``sigma_{$i=$j}`` — keeps tuples whose i-th and j-th components
    are equal.  Uses equality *and shows it in the output* (the columns
    stay), so it is not strong-fully generic (Section 3.2)."""
    variables = list(_vars(arity))
    variables[j] = variables[i]  # same value constraint ties the type vars

    def fn(r: Value) -> Value:
        return CVSet(t for t in r if t[i] == t[j])

    return Query(
        name=f"sigma[{i + 1}={j + 1}]",
        fn=fn,
        input_type=SetType(Product(tuple(variables))),
        output_type=SetType(Product(tuple(variables))),
        uses_equality=True,
    )


def hat_select_eq(i: int, j: int, arity: int) -> Query:
    """Chandra's ``sigma-hat``: select on ``$i=$j`` then project column
    ``j`` *out*, eliminating one of the equal occurrences (Prop 3.6).
    Strong-fully generic, unlike plain ``sigma``."""
    keep = [k for k in range(arity) if k != j]
    variables = list(_vars(arity))
    variables[j] = variables[i]

    def fn(r: Value) -> Value:
        return CVSet(t.project(keep) for t in r if t[i] == t[j])

    return Query(
        name=f"sigma-hat[{i + 1}={j + 1}]",
        fn=fn,
        input_type=SetType(Product(tuple(variables))),
        output_type=SetType(Product(tuple(variables[k] for k in keep))),
        uses_equality=True,
        notes="equality used in the query but eliminated from the output",
    )


def select_const(i: int, c: Value, arity: int, base: BaseType) -> Query:
    """``sigma_{$i=c}`` — the paper's Q5 with c=7.  Generic only w.r.t.
    mappings that strictly preserve ``c`` (Section 2.4.1)."""
    component_types: list[Type] = [TypeVar(f"X{k + 1}") for k in range(arity)]
    component_types[i] = base

    def fn(r: Value) -> Value:
        return CVSet(t for t in r if t[i] == c)

    t = SetType(Product(tuple(component_types)))
    return Query(
        name=f"sigma[{i + 1}={c!r}]",
        fn=fn,
        input_type=t,
        output_type=t,
        uses_equality=True,
        notes=f"mentions constant {c!r}",
    )


def union_op() -> Query:
    """Binary union on a pair of relations — fully generic (Prop 3.1)."""
    x = TypeVar("X")

    def fn(pair: Value) -> Value:
        r, s = pair
        return r.union(s)

    return Query(
        name="union",
        fn=fn,
        input_type=Product((SetType(x), SetType(x))),
        output_type=SetType(x),
    )


def intersection_op() -> Query:
    """Binary intersection — uses equality; strong-fully generic but not
    rel-fully generic (Props 3.4, 3.6)."""
    x = TypeVar("X")

    def fn(pair: Value) -> Value:
        r, s = pair
        return r.intersection(s)

    return Query(
        name="intersect",
        fn=fn,
        input_type=Product((SetType(x), SetType(x))),
        output_type=SetType(x),
        uses_equality=True,
    )


def difference_op() -> Query:
    """Binary difference — same genericity profile as intersection."""
    x = TypeVar("X")

    def fn(pair: Value) -> Value:
        r, s = pair
        return r.difference(s)

    return Query(
        name="difference",
        fn=fn,
        input_type=Product((SetType(x), SetType(x))),
        output_type=SetType(x),
        uses_equality=True,
    )


def cross_op() -> Query:
    """Binary cross product of unary element sets: {X} x {Y} -> {X*Y}."""
    x, y = TypeVar("X"), TypeVar("Y")

    def fn(pair: Value) -> Value:
        r, s = pair
        return CVSet(Tup((a, b)) for a in r for b in s)

    return Query(
        name="cross",
        fn=fn,
        input_type=Product((SetType(x), SetType(y))),
        output_type=SetType(Product((x, y))),
    )


def self_cross() -> Query:
    """``Q2 = R x R`` of Example 2.2 — invariant under *all* mappings."""
    x = TypeVar("X")

    def fn(r: Value) -> Value:
        return CVSet(Tup((a, b)) for a in r for b in r)

    return Query(
        name="RxR",
        fn=fn,
        input_type=SetType(x),
        output_type=SetType(Product((x, x))),
    )


def self_compose() -> Query:
    """``Q1 = pi_{$1,$3}(R |x| R)``, i.e. relational composition R o R
    (Example 2.2).  The implicit join uses equality."""
    x = TypeVar("X")

    def fn(r: Value) -> Value:
        by_first: dict[Value, set] = {}
        for t in r:
            by_first.setdefault(t[0], set()).add(t[1])
        out = set()
        for t in r:
            for c in by_first.get(t[1], ()):
                out.add(Tup((t[0], c)))
        return CVSet(out)

    return Query(
        name="RoR",
        fn=fn,
        input_type=SetType(Product((x, x))),
        output_type=SetType(Product((x, x))),
        uses_equality=True,
    )


def eq_adom() -> Query:
    """``eq_adom(d)`` — the equality relation over the active domain
    (Prop 3.5: rel-fully generic, *not* strong-fully generic)."""
    x = TypeVar("X")

    def fn(r: Value) -> Value:
        adom = set()
        for t in r:
            adom |= set(atoms_of(t))
        return CVSet(Tup((a, a)) for a in adom)

    return Query(
        name="eq_adom",
        fn=fn,
        input_type=SetType(x),
        output_type=SetType(Product((x, x))),
        uses_equality=True,
        notes="shows equality in the output without testing it",
    )


def even_query() -> Query:
    """``even`` — true iff the input set has even cardinality (Lemma
    2.12: not strictly C-generic for any finite C)."""
    x = TypeVar("X")

    def fn(r: Value) -> Value:
        return len(r) % 2 == 0

    return Query(
        name="even",
        fn=fn,
        input_type=SetType(x),
        output_type=BOOL,
        uses_equality=True,
        notes="counts distinct elements, hence uses equality implicitly",
    )


def identity_query(t: Optional[Type] = None) -> Query:
    """``Id`` — fully generic for both modes (Prop 3.1)."""
    t = t if t is not None else TypeVar("X")
    return Query(name="id", fn=lambda v: v, input_type=t, output_type=t)


def full_complement(universe: Iterable[Value], arity: int) -> Query:
    """Complement w.r.t. an explicit finite full domain (Section 3.3).

    ``{t | not R(t)}`` — generic only w.r.t. total *and* surjective
    mappings (Prop 3.7)."""
    universe = list(universe)

    def fn(r: Value) -> Value:
        all_tuples = {Tup(c) for c in itertools.product(universe, repeat=arity)}
        return CVSet(all_tuples - set(r))

    t = _single_var_rel(arity)
    return Query(
        name="complement",
        fn=fn,
        input_type=t,
        output_type=t,
        uses_equality=True,
        notes="full-domain semantics; domain dependent",
    )
