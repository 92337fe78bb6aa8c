"""Tests for invariance checking (Definition 2.9)."""

import random


from repro.algebra.operators import projection, select_eq, self_compose
from repro.genericity.invariance import (
    check_invariance,
    instantiate_at,
    related_pair,
    sample_image,
    strong_repair,
)
from repro.mappings.extensions import (
    REL,
    STRONG,
    ListRel,
    ProductRel,
    SetRelExt,
    SetStrongExt,
)
from repro.mappings.families import MappingFamily
from repro.mappings.mapping import Mapping
from repro.types.ast import INT, STR, Product, set_of, tvar
from repro.types.values import cvlist, cvset, tup


def h() -> Mapping:
    return Mapping({(1, 10), (1, 11), (2, 11), (3, 12)}, INT, INT)


class TestSampleImage:
    def test_base_level(self):
        rng = random.Random(0)
        y = sample_image(h(), 1, rng)
        assert y in (10, 11)

    def test_no_image_returns_none(self):
        assert sample_image(h(), 99, random.Random(0)) is None

    def test_product(self):
        rel = ProductRel((h(), h()))
        out = sample_image(rel, tup(1, 3), random.Random(0))
        assert out is not None
        assert rel.holds(tup(1, 3), out)

    def test_list(self):
        rel = ListRel(h())
        out = sample_image(rel, cvlist(1, 2, 3), random.Random(0))
        assert rel.holds(cvlist(1, 2, 3), out)

    def test_set_rel_always_valid(self):
        rel = SetRelExt(h())
        rng = random.Random(0)
        for _ in range(50):
            out = sample_image(rel, cvset(1, 2, 3), rng)
            assert out is not None
            assert rel.holds(cvset(1, 2, 3), out)

    def test_set_with_unmappable_element(self):
        rel = SetRelExt(h())
        assert sample_image(rel, cvset(1, 99), random.Random(0)) is None

    def test_strong_unique(self):
        rel = SetStrongExt(h())
        out = sample_image(rel, cvset(3), random.Random(0))
        assert out == cvset(12)


class TestStrongRepair:
    def test_drops_unmappable(self):
        rel = SetStrongExt(h())
        repaired = strong_repair(rel, cvset(3, 99))
        assert repaired == cvset(3)

    def test_saturates_to_closure(self):
        # {1} is not closed (2 shares image 11); repair saturates.
        rel = SetStrongExt(h())
        repaired = strong_repair(rel, cvset(1))
        assert repaired is not None
        assert next(rel.images(repaired), None) is not None

    def test_nested_sets(self):
        rel = SetStrongExt(SetStrongExt(h()))
        repaired = strong_repair(rel, cvset(cvset(3)))
        assert repaired is not None
        image = next(rel.images(repaired), None)
        assert image is not None
        assert rel.holds(repaired, image)

    def test_unmappable_set_repairs_to_the_empty_set(self):
        # Dropping every element leaves the empty set, which strongly
        # relates to itself: the repair is {}, not None, and the pair
        # ({}, {}) is handed out (and counted as checked by a search).
        rel = SetStrongExt(Mapping({(1, 101)}, INT, INT))
        assert strong_repair(rel, cvset(2, 3)) == cvset()
        pair = related_pair(rel, cvset(2, 3), STRONG, random.Random(0))
        assert pair == (cvset(), cvset())
        # An unmappable atom, by contrast, has no repair.
        assert strong_repair(rel.inner, 2) is None

    def test_non_set_has_no_repair(self):
        # A tuple, a list or an atom is not a set, so no set repairs it
        # and no strong image of it exists.
        rel = SetStrongExt(Mapping({(0, 10), (1, 11)}, INT, INT))
        for x in (tup(0, 1), cvlist(0, 1), 0):
            assert strong_repair(rel, x) is None
            assert related_pair(rel, x, STRONG, random.Random(0)) is None


class TestRelatedPair:
    def test_rel_pairs_validate(self):
        fam = MappingFamily({"int": h()})
        rel = fam.extend(set_of(INT * INT), REL)
        rng = random.Random(0)
        pair = related_pair(rel, cvset(tup(1, 2)), REL, rng)
        assert pair is not None
        assert rel.holds(*pair)

    def test_strong_pairs_validate(self):
        fam = MappingFamily({"int": h()})
        rel = fam.extend(set_of(INT * INT), STRONG)
        rng = random.Random(0)
        pair = related_pair(rel, cvset(tup(3, 3)), STRONG, rng)
        assert pair is not None
        assert rel.holds(*pair)

    def test_unmappable_input_skipped(self):
        fam = MappingFamily({"int": Mapping(set(), INT, INT)})
        rel = fam.extend(set_of(INT), REL)
        assert related_pair(rel, cvset(5), REL, random.Random(0)) is None


class TestInstantiateAt:
    def test_replaces_all_variables(self):
        t = set_of(Product((tvar("X1"), tvar("X2"))))
        assert instantiate_at(t, INT) == set_of(INT * INT)

    def test_closed_type_unchanged(self):
        assert instantiate_at(set_of(STR), INT) == set_of(STR)


class TestCheckInvariance:
    def test_projection_invariant(self):
        fam = MappingFamily({"int": h()})
        inputs = [cvset(tup(1, 2), tup(2, 3)), cvset(tup(3, 3))]
        for mode in (REL, STRONG):
            report = check_invariance(projection((0,), 2), fam, mode, inputs)
            assert report.invariant, report
            assert report.pairs_checked > 0

    def test_selection_violated_under_splitting(self):
        # Non-injective h' that splits equal values breaks sigma $1=$2.
        split = Mapping({(0, 1), (0, 2)}, INT, INT)
        fam = MappingFamily({"int": split})
        report = check_invariance(
            select_eq(0, 1, 2),
            fam,
            REL,
            [cvset(tup(0, 0))],
            rng=random.Random(3),
        )
        # Not every sampled partner splits; try several seeds.
        found = not report.invariant
        for seed in range(10):
            if found:
                break
            report = check_invariance(
                select_eq(0, 1, 2), fam, REL, [cvset(tup(0, 0))],
                rng=random.Random(seed),
            )
            found = not report.invariant
        assert found

    def test_witness_shape(self):
        split = Mapping({(0, 1), (0, 2)}, INT, INT)
        fam = MappingFamily({"int": split})
        witness = None
        for seed in range(20):
            report = check_invariance(
                select_eq(0, 1, 2), fam, REL, [cvset(tup(0, 0))],
                rng=random.Random(seed),
            )
            if report.witness:
                witness = report.witness
                break
        assert witness is not None
        r1, r2 = witness.input_pair
        in_rel = fam.extend(instantiate_at(select_eq(0, 1, 2).input_type, INT), REL)
        assert in_rel.holds(r1, r2)

    def test_unmappable_inputs_count_skipped(self):
        fam = MappingFamily({"int": Mapping(set(), INT, INT)})
        report = check_invariance(
            projection((0,), 2), fam, REL, [cvset(tup(5, 5))]
        )
        assert report.pairs_skipped == 1
        assert report.pairs_checked == 0
        assert report.invariant  # vacuously

    def test_example_2_2_end_to_end(self):
        # The paper's own instance through the generic machinery.
        from repro.engine.workload import paper_h_pairs, paper_r1

        fam = MappingFamily({"str": Mapping(paper_h_pairs(), STR, STR)})
        report = check_invariance(
            self_compose(), fam, STRONG, [paper_r1()],
            base=STR,
        )
        assert report.invariant
