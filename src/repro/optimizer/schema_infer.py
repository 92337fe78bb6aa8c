"""Schema (arity) inference for plans.

"The type could be found using type inference, or could be verified
using type checking" (Section 4.2) — for the plan algebra the relevant
type is the output schema.  :func:`infer_arity` computes it bottom-up
from the catalog's declared arities and *rejects ill-formed plans
statically*: projections out of range, union-incompatible operands,
join columns out of bounds — errors that would otherwise surface as
IndexErrors mid-execution.
"""

from __future__ import annotations

from ..types.ast import Product, SetType, Type, TypeVar
from .constraints import Catalog
from .plan import (
    Difference,
    Intersect,
    Join,
    MapNode,
    Plan,
    Product as PlanProduct,
    Project,
    Scan,
    Select,
    Union,
)

__all__ = ["SchemaInferenceError", "infer_arity", "plan_type"]


class SchemaInferenceError(Exception):
    """Raised when a plan is schema-inconsistent."""


def infer_arity(plan: Plan, catalog: Catalog) -> int:
    """Infer the output arity of ``plan``; raise on inconsistency."""
    if isinstance(plan, Scan):
        if plan.relation not in catalog:
            raise SchemaInferenceError(
                f"unknown relation {plan.relation!r}"
            )
        return catalog[plan.relation].arity
    if isinstance(plan, Project):
        child = infer_arity(plan.child, catalog)
        out_of_range = [c for c in plan.columns if not 0 <= c < child]
        if out_of_range:
            raise SchemaInferenceError(
                f"projection columns {sorted(c + 1 for c in out_of_range)} "
                f"out of range for arity {child} in {plan}"
            )
        return len(plan.columns)
    if isinstance(plan, (Union, Difference, Intersect)):
        left = infer_arity(plan.left, catalog)
        right = infer_arity(plan.right, catalog)
        if left != right:
            raise SchemaInferenceError(
                f"operands of {type(plan).__name__} have arities "
                f"{left} != {right} in {plan}"
            )
        return left
    if isinstance(plan, PlanProduct):
        return infer_arity(plan.left, catalog) + infer_arity(
            plan.right, catalog
        )
    if isinstance(plan, Join):
        left = infer_arity(plan.left, catalog)
        right = infer_arity(plan.right, catalog)
        for i, j in plan.on:
            if not (0 <= i < left and 0 <= j < right):
                raise SchemaInferenceError(
                    f"join columns ({i + 1}, {j + 1}) out of range "
                    f"for arities ({left}, {right}) in {plan}"
                )
        return left + right
    if isinstance(plan, Select):
        return infer_arity(plan.child, catalog)
    if isinstance(plan, MapNode):
        # Opaque function: the output arity is not statically known;
        # pass the child's through as the best available bound.
        return infer_arity(plan.child, catalog)
    raise SchemaInferenceError(f"unknown plan node: {plan!r}")


def plan_type(plan: Plan, catalog: Catalog) -> Type:
    """The inferred output type, as a set of tuples over one abstract
    domain — the shape the genericity machinery consumes."""
    arity = infer_arity(plan, catalog)
    x = TypeVar("X")
    return SetType(Product(tuple(x for _ in range(arity))))
