"""Rewrite rules justified by genericity / parametricity (Section 4.4).

Each rule records *why* it is sound in the paper's terms:

* ``map(f)`` commutes with fully generic / fully parametric operators
  for **arbitrary** ``f`` — "f could be any user-defined method, in any
  programming language, about which we know nothing";
* projection (``map(pi_1)``) pushes through union by the parametricity
  of ``union : forall X. {X} * {X} -> {X}`` — note the paper stresses
  plain genericity of union does *not* imply this, because ``pi_1``
  changes value structure;
* projection pushes through difference/intersection **only** when it is
  injective on the instances — difference is generic only w.r.t.
  injective mappings; the side condition is discharged from declared
  key constraints (the paper's employees/students SSN example);
* ``map(f)`` pushes through difference only when ``f`` is declared
  injective, for the same reason;
* selection pushes through union/difference/product because
  ``sigma : forall X. (X -> bool) -> {X} -> {X}`` is parametric and the
  same predicate is preserved on both sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .constraints import Catalog, projection_injective_on
from .plan import (
    Difference,
    Intersect,
    MapNode,
    Plan,
    Product,
    Project,
    Select,
    Union,
)

__all__ = ["RewriteRule", "DEFAULT_RULES"]


@dataclass(frozen=True)
class RewriteRule:
    """A named local rewrite with its paper justification."""

    name: str
    justification: str
    apply: Callable[[Plan, Catalog], Optional[Plan]]

    def __str__(self) -> str:
        return f"{self.name}: {self.justification}"


def _push_map_through_union(plan: Plan, _catalog: Catalog) -> Optional[Plan]:
    if isinstance(plan, MapNode) and isinstance(plan.child, Union):
        union = plan.child
        return Union(
            MapNode(plan.fn_name, plan.fn, union.left, plan.injective),
            MapNode(plan.fn_name, plan.fn, union.right, plan.injective),
        )
    return None


def _push_map_through_diff(plan: Plan, _catalog: Catalog) -> Optional[Plan]:
    if (
        isinstance(plan, MapNode)
        and plan.injective
        and isinstance(plan.child, (Difference, Intersect))
    ):
        node = plan.child
        rebuilt = type(node)(
            MapNode(plan.fn_name, plan.fn, node.left, True),
            MapNode(plan.fn_name, plan.fn, node.right, True),
        )
        return rebuilt
    return None


def _push_project_through_union(plan: Plan, _catalog: Catalog) -> Optional[Plan]:
    if isinstance(plan, Project) and isinstance(plan.child, Union):
        union = plan.child
        return Union(
            Project(plan.columns, union.left),
            Project(plan.columns, union.right),
        )
    return None


def _push_project_through_diff(plan: Plan, catalog: Catalog) -> Optional[Plan]:
    if isinstance(plan, Project) and isinstance(
        plan.child, (Difference, Intersect)
    ):
        node = plan.child
        if projection_injective_on(
            catalog, (node.left, node.right), plan.columns
        ):
            return type(node)(
                Project(plan.columns, node.left),
                Project(plan.columns, node.right),
            )
    return None


def _push_select_through_union(plan: Plan, _catalog: Catalog) -> Optional[Plan]:
    if isinstance(plan, Select) and isinstance(
        plan.child, (Union, Difference, Intersect)
    ):
        node = plan.child
        return type(node)(
            Select(plan.predicate_name, plan.predicate, node.left),
            Select(plan.predicate_name, plan.predicate, node.right),
        )
    return None


def _fuse_projects(plan: Plan, _catalog: Catalog) -> Optional[Plan]:
    if isinstance(plan, Project) and isinstance(plan.child, Project):
        inner = plan.child
        if any(i >= len(inner.columns) for i in plan.columns):
            # Ill-formed plan (outer projects a column the inner one
            # removed); leave it for the executor to report.
            return None
        fused = tuple(inner.columns[i] for i in plan.columns)
        return Project(fused, inner.child)
    return None


def _select_before_product(plan: Plan, _catalog: Catalog) -> Optional[Plan]:
    # sigma_p(A x B) with p touching only A's columns -> sigma_p(A) x B.
    # Column usage is not tracked for opaque predicates, so this rule
    # only fires for predicates registered with a column span.
    if (
        isinstance(plan, Select)
        and isinstance(plan.child, Product)
        and "@left" in plan.predicate_name
    ):
        product = plan.child
        return Product(
            Select(plan.predicate_name, plan.predicate, product.left),
            product.right,
        )
    return None


DEFAULT_RULES: tuple[RewriteRule, ...] = (
    RewriteRule(
        "push-map-through-union",
        "union is fully generic/parametric: commutes with map(f) for "
        "arbitrary f (Section 4.4)",
        _push_map_through_union,
    ),
    RewriteRule(
        "push-project-through-union",
        "parametricity of union at forall X.{X}*{X}->{X} with H = pi_1 "
        "(a structure-changing mapping; Section 4.4)",
        _push_project_through_union,
    ),
    RewriteRule(
        "push-project-through-difference",
        "difference is generic w.r.t. injective mappings; key constraint "
        "makes pi injective on the instances (employees/students example)",
        _push_project_through_diff,
    ),
    RewriteRule(
        "push-map-through-difference",
        "difference at forall X=: valid for f declared injective",
        _push_map_through_diff,
    ),
    RewriteRule(
        "push-select-through-union",
        "sigma : forall X.(X->bool)->{X}->{X} is parametric; the same "
        "predicate is preserved on both branches (Section 4.3)",
        _push_select_through_union,
    ),
    RewriteRule(
        "fuse-projections",
        "composition closure of fully generic queries (Prop 3.1)",
        _fuse_projects,
    ),
    RewriteRule(
        "select-before-product",
        "cross product is fully generic; a predicate over one factor "
        "commutes with forming the product",
        _select_before_product,
    ),
)
