"""Tests for the parametricity machinery (Theorem 4.4)."""

import random

import pytest

from repro.lambda2.parametricity import (
    check_parametricity,
    default_candidates,
    eq_candidates,
    logical_relation,
)
from repro.genericity.invariance import instantiate_at, sample_image
from repro.lambda2.prelude import build_prelude
from repro.listset.setfuncs import cardinality, poly, set_union
from repro.mappings.extensions import REL, ListRel, SetRelExt
from repro.mappings.families import MappingFamily
from repro.mappings.function_maps import ForAllRel, FuncRel
from repro.mappings.generators import random_mapping, random_value
from repro.mappings.mapping import IdentityRel, Mapping
from repro.types.ast import INT, TypeError_, func, list_of, set_of, tvar
from repro.types.parser import parse_type
from repro.types.values import cvlist


@pytest.fixture(scope="module")
def prelude():
    return build_prelude()


class TestCandidates:
    def test_default_mix(self):
        cands = default_candidates()
        assert len(cands) >= 4
        # Contains a non-functional mapping.
        assert any(not h.is_functional() for _a, _b, h in cands
                   if isinstance(h, Mapping))
        # Contains the cross-structure mapping str x <int>.
        assert any(a == tvar("X").__class__ or str(b).startswith("<")
                   for a, b, _h in cands) or any(
            str(b) == "<int>" for _a, b, _h in cands
        )

    def test_eq_candidates_injective(self):
        for _a, _b, h in eq_candidates():
            assert h.is_injective()


class TestLogicalRelation:
    def test_base_type_identity(self):
        # Base types get identity relations with the default carrier
        # {0, 1, 2} (values outside are not in the relation).
        rel = logical_relation(INT)
        assert isinstance(rel, IdentityRel)
        assert rel.holds(2, 2)
        assert not rel.holds(2, 1)
        assert not rel.holds(3, 3)

    def test_free_variable_needs_assignment(self):
        with pytest.raises(TypeError_):
            logical_relation(tvar("X"))
        h = Mapping({(0, 1)}, INT, INT)
        rel = logical_relation(tvar("X"), var_rels={"X": h})
        assert rel.holds(0, 1)

    def test_list_type_builds_list_rel(self):
        h = Mapping({(0, 1)}, INT, INT)
        rel = logical_relation(list_of(tvar("X")), var_rels={"X": h})
        assert isinstance(rel, ListRel)
        assert rel.holds(cvlist(0, 0), cvlist(1, 1))

    def test_set_type_uses_rel_mode(self):
        h = Mapping({(0, 5), (1, 5)}, INT, INT)
        rel = logical_relation(set_of(tvar("X")), var_rels={"X": h})
        assert isinstance(rel, SetRelExt)
        from repro.types.values import cvset

        assert rel.holds(cvset(0, 1), cvset(5))

    def test_function_type(self):
        rel = logical_relation(func(tvar("X"), tvar("X")),
                               var_rels={"X": Mapping({(0, 1)}, INT, INT)})
        assert isinstance(rel, FuncRel)

    def test_forall_builds_forall_rel(self):
        rel = logical_relation(parse_type("forall X. X -> X"))
        assert isinstance(rel, ForAllRel)


class TestGenericityBridge:
    """Section 4's bridge to Section 2: on a quantifier-free type over
    one variable ``X``, the relation ``T`` with ``H`` at ``X`` is the
    genericity extension ``H^rel`` at the type's ``int`` instance."""

    TYPES = ("{X}", "<X>", "{X * <X>}", "{{X}}", "X * {X}", "{|X|}")

    def test_logical_relation_agrees_with_family_extension(self):
        rng = random.Random(0)
        left, right = [0, 1, 2], [10, 11, 12]
        verdicts = {True: 0, False: 0}
        for _ in range(30):
            h = random_mapping(rng, left, right)
            for text in self.TYPES:
                t = parse_type(text)
                instance = instantiate_at(t, INT)
                parametric = logical_relation(t, var_rels={"X": h})
                generic = MappingFamily({"int": h}).extend(instance, REL)
                for _ in range(3):
                    x = random_value(rng, instance, {"int": left}, 2)
                    pairs = [(x, random_value(rng, instance, {"int": right}, 2))]
                    y = sample_image(generic, x, rng)
                    if y is not None:
                        pairs.append((x, y))
                    for x, y in pairs:
                        verdict = generic.holds(x, y)
                        assert parametric.holds(x, y) == verdict, (text, h, x, y)
                        verdicts[verdict] += 1
        assert verdicts[True] >= 100 and verdicts[False] >= 100, verdicts


class TestTheorem44:
    def test_prelude_is_parametric(self, prelude):
        for name in ("id", "append", "map", "count", "reverse", "filter",
                     "zip", "nil", "cons", "ins"):
            report = check_parametricity(
                prelude.value(name), prelude.type_of(name), name
            )
            assert report.parametric, (name, report.violation)

    def test_difference_parametric_at_eq_type(self, prelude):
        report = check_parametricity(
            prelude.value("difference"), prelude.type_of("difference"),
            "difference",
        )
        assert report.parametric

    def test_difference_fails_without_eq(self, prelude):
        report = check_parametricity(
            prelude.value("difference"),
            parse_type("forall X. <X> * <X> -> <X>"),
            "difference",
        )
        assert not report.parametric
        assert report.violation is not None

    def test_element_inspecting_function_fails(self):
        # "Sum" at forall X. <X> -> int inspects elements.
        sneaky = poly(lambda l: sum(l))
        report = check_parametricity(
            sneaky, parse_type("forall X. <X> -> int"), "sum"
        )
        assert not report.parametric

    def test_count_invariant_under_cross_structure_mapping(self, prelude):
        # The paper's point (Section 4.3 item 2): parametricity gives
        # invariance even under mappings between types of different
        # structure, which genericity cannot express.
        cross = [c for c in default_candidates() if c[1] == list_of(INT)]
        assert len(cross) == 1  # H : str x <int>
        report = check_parametricity(
            prelude.value("count"), prelude.type_of("count"), "count",
            candidates=cross,
        )
        assert report.parametric

    def test_set_union_parametric(self):
        report = check_parametricity(
            poly(set_union), parse_type("forall X. {X} * {X} -> {X}"),
            "union",
        )
        assert report.parametric

    def test_cardinality_not_rel_parametric(self):
        report = check_parametricity(
            poly(cardinality), parse_type("forall X. {X} -> int"), "card"
        )
        assert not report.parametric

    def test_bag_identity_parametric(self):
        # A bag argument's related pairs come from its bounded carriers.
        report = check_parametricity(
            poly(lambda b: b), parse_type("forall X. {|X|} -> {|X|}"),
            "id",
        )
        assert report.parametric

    def test_bag_size_not_rel_parametric(self):
        # The rel extension relates bags by their supports, so it
        # relates bags of different sizes.
        report = check_parametricity(
            poly(len), parse_type("forall X. {|X|} -> int"), "len"
        )
        assert not report.parametric
        assert report.violation is not None

    def test_report_repr(self, prelude):
        report = check_parametricity(
            prelude.value("id"), prelude.type_of("id"), "id"
        )
        assert "parametric" in repr(report)
