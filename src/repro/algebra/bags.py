"""Bag (multiset) operations.

The PODS abstract defers bags to the full paper ("In the full paper we
present definitions and results for bags"); we reconstruct the standard
bag algebra so the genericity experiments can probe it under the
support-based bag extensions of :mod:`repro.mappings.extensions`:

* additive union, monus (bag difference), min-intersection;
* duplicate elimination ``delta : {|t|} -> {t}``;
* bag projection (multiplicity preserving);
* ``bag_count`` — multiplicity lookup, the bag analogue of membership.

Genericity expectations (verified by experiment E-BAGS): operations that
only rearrange elements (additive union, projection) are fully
generic like their set counterparts; monus and min-intersection need
equality on multiplicities and are generic only w.r.t. injective
mappings; duplicate elimination is fully generic under the rel bag
extension (supports are what rel mode sees) but *not* under the strong
one (mass is not preserved).
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from ..types.ast import BagType, Product, SetType, TypeVar
from ..types.values import CVBag, CVSet, Value
from .query import Query

__all__ = [
    "bag_union",
    "bag_monus",
    "bag_min_intersection",
    "duplicate_elim",
    "bag_projection",
]


def _counts(b: CVBag) -> Counter:
    return Counter({v: b.count(v) for v in b.support()})


def bag_union() -> Query:
    """Additive bag union: multiplicities add."""
    x = TypeVar("X")

    def fn(pair: Value) -> Value:
        left, right = pair
        return left.union(right)

    return Query(
        name="bag_union",
        fn=fn,
        input_type=Product((BagType(x), BagType(x))),
        output_type=BagType(x),
    )


def bag_monus() -> Query:
    """Bag difference (monus): multiplicities subtract, floored at 0."""
    x = TypeVar("X")

    def fn(pair: Value) -> Value:
        left, right = pair
        counts = _counts(left)
        counts.subtract(_counts(right))
        out: list[Value] = []
        for value, n in counts.items():
            out.extend([value] * max(n, 0))
        return CVBag(out)

    return Query(
        name="bag_monus",
        fn=fn,
        input_type=Product((BagType(x), BagType(x))),
        output_type=BagType(x),
        uses_equality=True,
    )


def bag_min_intersection() -> Query:
    """Bag intersection: element-wise minimum multiplicity."""
    x = TypeVar("X")

    def fn(pair: Value) -> Value:
        left, right = pair
        out: list[Value] = []
        for value in left.support() & right.support():
            out.extend([value] * min(left.count(value), right.count(value)))
        return CVBag(out)

    return Query(
        name="bag_min_intersection",
        fn=fn,
        input_type=Product((BagType(x), BagType(x))),
        output_type=BagType(x),
        uses_equality=True,
    )


def duplicate_elim() -> Query:
    """``delta`` — collapse a bag to its support set."""
    x = TypeVar("X")

    def fn(b: Value) -> Value:
        return CVSet(b.support())

    return Query(
        name="delta",
        fn=fn,
        input_type=BagType(x),
        output_type=SetType(x),
        uses_equality=True,
        notes="collapses multiplicities; needs equality to do so",
    )


def bag_projection(indices: Sequence[int], arity: int) -> Query:
    """Multiplicity-preserving bag projection."""
    indices = tuple(indices)
    variables = tuple(TypeVar(f"X{i + 1}") for i in range(arity))

    def fn(b: Value) -> Value:
        return CVBag(t.project(indices) for t in b)

    return Query(
        name=f"bag_pi[{','.join(str(i + 1) for i in indices)}]",
        fn=fn,
        input_type=BagType(Product(variables)),
        output_type=BagType(Product(tuple(variables[i] for i in indices))),
    )
