"""Tests for plan schema inference."""

import random

import pytest

from repro.engine.workload import deep_chain_plan

from repro.optimizer import schema_infer
from repro.optimizer.constraints import Catalog, RelationInfo
from repro.optimizer.plan import (
    Difference,
    Intersect,
    Join,
    MapNode,
    Product,
    Project,
    Scan,
    Select,
    Union,
)
from repro.optimizer.schema_infer import (
    SchemaInferenceError,
    infer_arity,
    plan_type,
)
from repro.types.values import Tup


class _Opaque:
    """A node type that schema inference has no rule for (not a
    ``Plan`` subclass, so the plan-type completeness guards ignore it)."""

    def __init__(self, *children):
        self._children = children

    def children(self):
        return self._children


@pytest.fixture()
def catalog():
    return Catalog([
        RelationInfo("r", 2),
        RelationInfo("s", 2),
        RelationInfo("t", 3),
    ])


class TestInference:
    def test_scan(self, catalog):
        assert infer_arity(Scan("t"), catalog) == 3

    def test_unknown_relation(self, catalog):
        with pytest.raises(SchemaInferenceError):
            infer_arity(Scan("ghost"), catalog)

    def test_projection_narrows(self, catalog):
        assert infer_arity(Project((0,), Scan("t")), catalog) == 1
        assert infer_arity(Project((2, 0), Scan("t")), catalog) == 2

    def test_projection_out_of_range(self, catalog):
        with pytest.raises(SchemaInferenceError):
            infer_arity(Project((3,), Scan("t")), catalog)

    def test_nested_projection_mismatch_caught(self, catalog):
        # The plan the rewriter property test surfaced: outer projects a
        # column the inner projection removed.
        plan = Project((1,), Project((0,), Scan("r")))
        with pytest.raises(SchemaInferenceError):
            infer_arity(plan, catalog)

    def test_union_compatibility(self, catalog):
        assert infer_arity(Union(Scan("r"), Scan("s")), catalog) == 2
        with pytest.raises(SchemaInferenceError):
            infer_arity(Union(Scan("r"), Scan("t")), catalog)

    def test_difference_compatibility(self, catalog):
        with pytest.raises(SchemaInferenceError):
            infer_arity(Difference(Scan("t"), Scan("r")), catalog)

    def test_intersect_compatibility(self, catalog):
        assert infer_arity(Intersect(Scan("r"), Scan("s")), catalog) == 2
        with pytest.raises(SchemaInferenceError, match="Intersect"):
            infer_arity(Intersect(Scan("r"), Scan("t")), catalog)

    def test_product_adds(self, catalog):
        assert infer_arity(Product(Scan("r"), Scan("t")), catalog) == 5

    def test_join_bounds(self, catalog):
        assert infer_arity(Join(((1, 0),), Scan("r"), Scan("t")), catalog) == 5
        with pytest.raises(SchemaInferenceError):
            infer_arity(Join(((2, 0),), Scan("r"), Scan("t")), catalog)

    def test_join_right_column_bound(self, catalog):
        assert infer_arity(Join(((0, 2),), Scan("r"), Scan("t")), catalog) == 5
        with pytest.raises(SchemaInferenceError, match="join columns"):
            infer_arity(Join(((0, 3),), Scan("r"), Scan("t")), catalog)

    def test_child_errors_reach_the_root(self, catalog):
        bad = Project((5,), Scan("r"))
        for plan in (Product(Scan("t"), bad), Select("p", lambda t: True, bad),
                     Union(bad, Scan("s"))):
            with pytest.raises(SchemaInferenceError, match="out of range"):
                infer_arity(plan, catalog)

    def test_select_transparent(self, catalog):
        plan = Select("p", lambda t: True, Scan("t"))
        assert infer_arity(plan, catalog) == 3

    def test_map_passes_child_through(self, catalog):
        plan = MapNode("f", lambda t: Tup((t[0],)), Scan("t"))
        assert infer_arity(plan, catalog) == 3


class TestUnknownNodes:
    def test_unknown_node_is_refused(self, catalog):
        with pytest.raises(SchemaInferenceError, match="unknown plan node"):
            infer_arity(Union(Scan("r"), _Opaque(Scan("s"))), catalog)

    @pytest.mark.parametrize("children", [(), (Scan("t"),)])
    def test_walked_node_without_a_rule_is_refused(
        self, catalog, monkeypatch, children
    ):
        # A type the walk admits but the arity rules do not name fails
        # loudly: it never takes its first child's arity.
        monkeypatch.setattr(
            schema_infer, "_KNOWN", schema_infer._KNOWN + (_Opaque,)
        )
        with pytest.raises(SchemaInferenceError, match="unknown plan node"):
            infer_arity(_Opaque(*children), catalog)


class TestDeepPlans:
    def test_chain_5000_deep(self, catalog):
        # Deeper than the recursion limit: the walk uses its own stack.
        plan = deep_chain_plan(random.Random(0), "t", 5000, base_arity=3)
        assert infer_arity(plan, catalog) == 3
        bad = Union(plan, Scan("r"))
        with pytest.raises(SchemaInferenceError, match="3 != 2"):
            infer_arity(bad, catalog)


class TestPlanType:
    def test_shape(self, catalog):
        t = plan_type(Project((0,), Scan("t")), catalog)
        assert str(t) == "{X}"
        t2 = plan_type(Scan("r"), catalog)
        assert str(t2) == "{X * X}"

    def test_product_type_is_flat(self, catalog):
        t = plan_type(Product(Scan("r"), Project((0,), Scan("t"))), catalog)
        assert str(t) == "{X * X * X}"

    def test_inconsistent_plan_has_no_type(self, catalog):
        with pytest.raises(SchemaInferenceError):
            plan_type(Union(Scan("r"), Scan("t")), catalog)
