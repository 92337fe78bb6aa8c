"""The (flat) relational operator catalog classified by the paper.

Section 3 classifies relational algebra / calculus operations by their
genericity.  This module implements each operation the paper mentions as
a typed :class:`~repro.algebra.query.Query` so the genericity machinery
can test it:

* the fully generic core: projection, cross product, union, identity,
  the empty query Ø̂ (Prop 3.1 / Cor 3.2);
* equality-using operations: selection ``sigma $i=$j``, intersection,
  difference, natural join, ``R o R`` composition (Example 2.2's Q1);
* Chandra's variant ``sigma-hat`` which uses equality in the query but
  eliminates it from the output (Prop 3.6);
* constant-using operations: ``sigma $i=c``, insert-constant (Section
  2.4/4.3);
* domain-sensitive operations: active domain, `eq_adom`` (Prop 3.5),
  complement (Section 3.3), ``even`` (Lemma 2.12).

Relations are sets of tuples: ``CVSet`` of ``Tup``.  A *database* input
for a binary operator is the pair ``Tup((R, S))``.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Optional, Sequence

from ..types.ast import (
    BOOL,
    BaseType,
    Product,
    SetType,
    Type,
    TypeVar,
)
from ..types.values import CVSet, Tup, Value, atoms_of
from .query import Query, constant_query

__all__ = [
    "projection",
    "projection_out",
    "select_eq",
    "hat_select_eq",
    "select_const",
    "select_pred",
    "union_op",
    "intersection_op",
    "difference_op",
    "cross_op",
    "self_cross",
    "self_compose",
    "natural_join",
    "map_query",
    "eq_adom",
    "even_query",
    "identity_query",
    "empty_query",
    "active_domain",
    "adom_complement",
    "full_complement",
    "ins_const",
    "rename_query",
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


def projection_out(j: int, arity: int) -> Query:
    """Projection *out of* column ``j`` — the ``pi_{\\hat j}`` of Prop 3.6."""
    keep = [i for i in range(arity) if i != j]
    q = projection(keep, arity)
    q.name = f"pi[-{j + 1}]"
    return q


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


def select_pred(
    predicate: Callable[[Value], bool],
    name: str,
    element_type: Type,
) -> Query:
    """``sigma_p`` over set elements, p applied to the whole element.

    Generic w.r.t. mappings preserving ``p`` (Section 4.3)."""

    def fn(r: Value) -> Value:
        return CVSet(x for x in r if predicate(x))

    t = SetType(element_type)
    return Query(name=f"sigma[{name}]", fn=fn, input_type=t, output_type=t)


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


def natural_join(arity_left: int, arity_right: int, on: Sequence[tuple[int, int]]) -> Query:
    """Equi-join of two relations on column pairs ``on``; equality-using."""
    on = tuple(on)

    def fn(pair: Value) -> Value:
        r, s = pair
        out = set()
        for t in r:
            for u in s:
                if all(t[i] == u[j] for i, j in on):
                    out.add(Tup(tuple(t) + tuple(u)))
        return CVSet(out)

    left_vars = tuple(TypeVar(f"X{i + 1}") for i in range(arity_left))
    right_vars = list(TypeVar(f"Y{i + 1}") for i in range(arity_right))
    for i, j in on:
        right_vars[j] = left_vars[i]
    return Query(
        name=f"join[{on}]",
        fn=fn,
        input_type=Product(
            (SetType(Product(left_vars)), SetType(Product(tuple(right_vars))))
        ),
        output_type=SetType(Product(left_vars + tuple(right_vars))),
        uses_equality=True,
    )


def map_query(f: Callable[[Value], Value], name: str, element_in: Type, element_out: Type) -> Query:
    """``map(f)`` over a set — the closure constructor of Prop 3.1."""

    def fn(r: Value) -> Value:
        return CVSet(f(x) for x in r)

    return Query(
        name=f"map({name})",
        fn=fn,
        input_type=SetType(element_in),
        output_type=SetType(element_out),
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


def empty_query(t: Optional[Type] = None) -> Query:
    """The paper's Ø̂, returning the empty relation on any input."""
    t = t if t is not None else SetType(TypeVar("X"))
    return constant_query("empty", CVSet(), t, SetType(TypeVar("Y")))


def active_domain(arity: int) -> Query:
    """``adom`` — all atoms appearing in the relation, as a unary set."""

    def fn(r: Value) -> Value:
        out = set()
        for t in r:
            out |= set(atoms_of(t))
        return CVSet(out)

    return Query(
        name="adom",
        fn=fn,
        input_type=_single_var_rel(arity),
        output_type=SetType(TypeVar("X")),
        uses_equality=True,
    )


def adom_complement(arity: int) -> Query:
    """Complement w.r.t. the active domain: ``adom^arity - R``.

    Prop 3.6 notes strong classes are closed under this complement."""

    def fn(r: Value) -> Value:
        adom = set()
        for t in r:
            adom |= set(atoms_of(t))
        universe = {Tup(c) for c in itertools.product(sorted(adom, key=repr), repeat=arity)}
        return CVSet(universe - set(r))

    t = _single_var_rel(arity)
    return Query(
        name="adom_complement",
        fn=fn,
        input_type=t,
        output_type=t,
        uses_equality=True,
    )


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


def ins_const(c: Value, base: BaseType) -> Query:
    """``ins_c(R) = R union {c}`` (Section 4.3) — generic w.r.t. mappings
    that (regularly) preserve ``c``."""

    def fn(r: Value) -> Value:
        return r.add(c)

    t = SetType(base)
    return Query(
        name=f"ins[{c!r}]",
        fn=fn,
        input_type=t,
        output_type=t,
        notes=f"mentions constant {c!r}; needs only regular preservation",
    )


def rename_query(permutation: Sequence[int], arity: int) -> Query:
    """Column permutation ``rho`` — fully generic."""
    permutation = tuple(permutation)
    q = projection(permutation, arity)
    q.name = f"rho[{permutation}]"
    return q

