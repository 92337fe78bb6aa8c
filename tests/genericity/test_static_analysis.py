"""Tests for the static genericity analyzer."""

import random

import pytest

from repro.engine.workload import deep_chain_plan

from repro.genericity.static_analysis import (
    ClassBound,
    Profile,
    analyze_plan,
)
from repro.optimizer.plan import (
    Difference,
    Join,
    MapNode,
    Plan,
    Project,
    Scan,
    Select,
    Union,
)
from repro.types.values import Tup


class TestLattice:
    def test_meet_takes_minimum(self):
        assert ClassBound.ALL.meet(ClassBound.INJECTIVE) is ClassBound.INJECTIVE
        assert ClassBound.INJECTIVE.meet(ClassBound.NONE) is ClassBound.NONE
        assert ClassBound.ALL.meet(ClassBound.ALL) is ClassBound.ALL

    def test_profile_meet_componentwise(self):
        a = Profile(ClassBound.ALL, ClassBound.INJECTIVE)
        b = Profile(ClassBound.INJECTIVE, ClassBound.ALL)
        met = a.meet(b)
        assert met.rel is ClassBound.INJECTIVE
        assert met.strong is ClassBound.INJECTIVE

    def test_labels(self):
        assert ClassBound.ALL.label() == "all"
        assert ClassBound.NONE.label() == "none"


class TestAnalyzePlan:
    def test_fully_generic_composition(self):
        plan = Project((0,), Union(Scan("r"), Scan("s")))
        profile = analyze_plan(plan)
        assert profile.rel is ClassBound.ALL
        assert profile.strong is ClassBound.ALL

    def test_difference_caps_rel_side(self):
        plan = Project((0,), Difference(Scan("r"), Scan("s")))
        profile = analyze_plan(plan)
        assert profile.rel is ClassBound.INJECTIVE
        assert profile.strong is ClassBound.ALL

    def test_join_caps_both_sides(self):
        plan = Join(((0, 0),), Scan("r"), Scan("s"))
        profile = analyze_plan(plan)
        assert profile.rel is ClassBound.INJECTIVE
        assert profile.strong is ClassBound.INJECTIVE

    def test_opaque_select_drops_to_none(self):
        plan = Select("p", lambda t: True, Union(Scan("r"), Scan("s")))
        profile = analyze_plan(plan)
        assert profile.rel is ClassBound.NONE

    def test_map_drops_to_none(self):
        plan = MapNode("f", lambda t: Tup((t[0],)), Scan("r"))
        assert analyze_plan(plan).strong is ClassBound.NONE

    def test_caps_propagate_upward(self):
        # A difference buried deep still caps the whole plan's rel side.
        plan = Union(
            Project((0,), Scan("r")),
            Project((0,), Difference(Scan("r"), Scan("s"))),
        )
        assert analyze_plan(plan).rel is ClassBound.INJECTIVE

    def test_unknown_node_rejected(self):
        class Rogue(Plan):
            pass

        with pytest.raises(TypeError):
            analyze_plan(Rogue())


class TestDeepPlans:
    def test_chain_5000_deep(self):
        # Deeper than the recursion limit: the meet is taken on an
        # explicit stack.  The random chain holds selections and maps,
        # which guarantee nothing.
        plan = deep_chain_plan(random.Random(0), "R", 5000, base_arity=3)
        assert analyze_plan(plan) == Profile(ClassBound.NONE, ClassBound.NONE)
        chain = Scan("R")
        for _ in range(5000):
            chain = Project((0,), chain)
        assert analyze_plan(Difference(chain, Scan("S"))) == Profile(
            ClassBound.INJECTIVE, ClassBound.ALL
        )


class TestSoundnessSpotCheck:
    """E-STATIC runs the full sweep; one cell here as a unit test."""

    def test_promised_cell_holds_dynamically(self):
        from repro.experiments.static_check import plan_as_query
        from repro.genericity.hierarchy import GenericitySpec
        from repro.genericity.witnesses import find_counterexample
        from repro.mappings.extensions import STRONG

        plan = Difference(Scan("R"), Scan("S"))
        assert analyze_plan(plan).strong is ClassBound.ALL
        query = plan_as_query(plan, ("R", "S"))
        search = find_counterexample(
            query, GenericitySpec("all", "all"), STRONG, trials=30
        )
        assert not search.found
