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


_KNOWN = (Scan, Project, Union, Difference, Intersect, PlanProduct, Join,
          Select, MapNode)


def infer_arity(plan: Plan, catalog: Catalog) -> int:
    """Infer the output arity of ``plan``; raise on inconsistency.

    The walk is an explicit-stack postorder, left child first, so plans
    of any depth are checked and the first error is the one a
    left-to-right recursion would raise."""
    arities: list[int] = []
    stack: list[tuple[Plan, bool]] = [(plan, False)]
    while stack:
        node, ready = stack.pop()
        if not ready:
            if not isinstance(node, _KNOWN):
                raise SchemaInferenceError(f"unknown plan node: {node!r}")
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(node.children()))
            continue
        split = len(arities) - len(node.children())
        children = arities[split:]
        del arities[split:]
        arities.append(_node_arity(node, children, catalog))
    return arities.pop()


def _node_arity(node: Plan, children: list[int], catalog: Catalog) -> int:
    """``node``'s output arity, given its children's."""
    if isinstance(node, Scan):
        if node.relation not in catalog:
            raise SchemaInferenceError(
                f"unknown relation {node.relation!r}"
            )
        return catalog[node.relation].arity
    if isinstance(node, Project):
        (child,) = children
        out_of_range = [c for c in node.columns if not 0 <= c < child]
        if out_of_range:
            raise SchemaInferenceError(
                f"projection columns {sorted(c + 1 for c in out_of_range)} "
                f"out of range for arity {child} in {node}"
            )
        return len(node.columns)
    if isinstance(node, (Union, Difference, Intersect)):
        left, right = children
        if left != right:
            raise SchemaInferenceError(
                f"operands of {type(node).__name__} have arities "
                f"{left} != {right} in {node}"
            )
        return left
    if isinstance(node, PlanProduct):
        return children[0] + children[1]
    if isinstance(node, Join):
        left, right = children
        for i, j in node.on:
            if not (0 <= i < left and 0 <= j < right):
                raise SchemaInferenceError(
                    f"join columns ({i + 1}, {j + 1}) out of range "
                    f"for arities ({left}, {right}) in {node}"
                )
        return left + right
    if isinstance(node, (Select, MapNode)):
        # Select keeps its child's arity.  So does MapNode: its function
        # is opaque, and the child's arity is the best available bound.
        return children[0]
    raise SchemaInferenceError(f"unknown plan node: {node!r}")


def plan_type(plan: Plan, catalog: Catalog) -> Type:
    """The inferred output type, as a set of tuples over one abstract
    domain — the shape the genericity machinery consumes."""
    arity = infer_arity(plan, catalog)
    x = TypeVar("X")
    return SetType(Product(tuple(x for _ in range(arity))))
