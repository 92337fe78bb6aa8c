"""Unit tests for experiment helper functions."""

import random

import pytest

from repro.experiments.orders import monotone_family, select_less_than
from repro.experiments.static_check import plan_as_query
from repro.mappings.extensions import REL
from repro.optimizer.constraints import Catalog, RelationInfo
from repro.optimizer.plan import Difference, MapNode, Project, Scan, Union
from repro.optimizer.schema_infer import SchemaInferenceError, plan_type
from repro.types.values import Tup, cvset, tup


class TestOrderHelpers:
    def test_monotone_family_is_monotone_injection(self):
        rng = random.Random(0)
        for _ in range(20):
            family = monotone_family(rng)
            mapping = family["int"]
            assert mapping.is_injective()
            pairs = sorted(mapping.pairs())
            targets = [y for _x, y in pairs]
            assert targets == sorted(targets)

    def test_select_less_than_semantics(self):
        q = select_less_than()
        r = cvset(tup(1, 2), tup(2, 1), tup(3, 3))
        assert q.fn(r) == cvset(tup(1, 2))


class TestPlanAsQuery:
    def test_executes_plan_on_tuple_of_relations(self):
        plan = Project((0,), Union(Scan("R"), Scan("S")))
        query = plan_as_query(plan, ("R", "S"))
        r = cvset(tup(1, 2))
        s = cvset(tup(3, 4))
        assert query.fn(Tup((r, s))) == cvset(tup(1), tup(3))

    def test_single_relation_input(self):
        plan = Project((1,), Scan("R"))
        query = plan_as_query(plan, ("R",))
        assert query.fn(cvset(tup(1, 2))) == cvset(tup(2))

    def test_output_arity_tracking(self):
        from repro.types.ast import SetType

        plan = Project((0,), Difference(Scan("R"), Scan("S")))
        query = plan_as_query(plan, ("R", "S"))
        assert isinstance(query.output_type, SetType)
        assert len(query.output_type.element.components) == 1

    def test_output_type_is_schema_inferred(self):
        # A map passes its child's arity through, as schema inference
        # does: one column here, not the base relation's two.
        plan = MapNode("f", lambda t: t, Project((0,), Scan("R")))
        query = plan_as_query(plan, ("R",))
        assert query.output_type == plan_type(
            plan, Catalog([RelationInfo("R", 2)])
        )
        assert len(query.output_type.element.components) == 1

    def test_inconsistent_arities_rejected(self):
        plan = Union(Project((0,), Scan("R")), Scan("S"))
        with pytest.raises(SchemaInferenceError, match="arities 1 != 2"):
            plan_as_query(plan, ("R", "S"))

    def test_plan_query_classifiable(self):
        from repro.genericity.classify import classify

        plan = Project((0,), Union(Scan("R"), Scan("S")))
        query = plan_as_query(plan, ("R", "S"))
        row = classify(query, trials=8)
        assert row.cell("all", REL).generic


class TestInexpressibilityGenerators:
    def test_random_positive_terms_are_queries(self):
        from repro.experiments.inexpressibility import _random_positive_term

        rng = random.Random(0)
        for _ in range(20):
            term = _random_positive_term(rng)
            assert term.input_type is not None
            # Run it on something to make sure it is executable.
            term.fn(cvset(tup(1, 2), tup(3, 4)))

    def test_random_hat_terms_are_queries(self):
        from repro.experiments.inexpressibility import _random_hat_term

        rng = random.Random(0)
        for _ in range(20):
            term = _random_hat_term(rng)
            term.fn(cvset(tup(1, 1), tup(1, 2)))
