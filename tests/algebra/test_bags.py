"""Tests for the bag algebra."""

from repro.algebra.bags import (
    bag_min_intersection,
    bag_monus,
    bag_projection,
    bag_union,
    duplicate_elim,
)
from repro.types.values import Tup, cvbag, cvset, tup


class TestBagUnion:
    def test_multiplicities_add(self):
        out = bag_union().fn(Tup((cvbag(1, 1), cvbag(1, 2))))
        assert out.count(1) == 3
        assert out.count(2) == 1

    def test_empty_identity(self):
        b = cvbag(1, 2)
        assert bag_union().fn(Tup((b, cvbag()))) == b


class TestBagMonus:
    def test_subtracts_with_floor(self):
        out = bag_monus().fn(Tup((cvbag(1, 1, 2), cvbag(1, 2, 2))))
        assert out == cvbag(1)

    def test_disjoint_untouched(self):
        assert bag_monus().fn(Tup((cvbag(1), cvbag(2)))) == cvbag(1)

    def test_uses_equality(self):
        assert bag_monus().uses_equality


class TestBagMinIntersection:
    def test_minimum_multiplicity(self):
        out = bag_min_intersection().fn(
            Tup((cvbag(1, 1, 1, 2), cvbag(1, 1, 3)))
        )
        assert out == cvbag(1, 1)

    def test_disjoint_empty(self):
        assert bag_min_intersection().fn(Tup((cvbag(1), cvbag(2)))) == cvbag()


class TestDuplicateElim:
    def test_collapses_to_support(self):
        assert duplicate_elim().fn(cvbag(1, 1, 2)) == cvset(1, 2)

    def test_empty(self):
        assert duplicate_elim().fn(cvbag()) == cvset()


class TestBagStructuralOps:
    def test_projection_preserves_multiplicity(self):
        b = cvbag(tup(1, "a"), tup(1, "b"))
        out = bag_projection((0,), 2).fn(b)
        assert out.count(tup(1)) == 2


class TestBagTypes:
    def test_projection_type_and_flag(self):
        q = bag_projection((1,), 2)
        assert str(q.input_type) == "{|X1 * X2|}"
        assert str(q.output_type) == "{|X2|}"
        assert not q.uses_equality

    def test_duplicate_elim_maps_bags_to_sets(self):
        q = duplicate_elim()
        assert str(q.input_type) == "{|X|}"
        assert str(q.output_type) == "{X}"
        assert q.uses_equality


class TestBagLaws:
    def test_union_commutes(self):
        a, b = cvbag(1, 1, 2), cvbag(2, 3)
        assert bag_union().fn(Tup((a, b))) == bag_union().fn(Tup((b, a)))

    def test_monus_then_union_restores_a_contained_bag(self):
        # (a - b) + b = a whenever b is contained in a.
        a, b = cvbag(1, 1, 1, 2, 3), cvbag(1, 1, 3)
        rest = bag_monus().fn(Tup((a, b)))
        assert rest == cvbag(1, 2)
        assert bag_union().fn(Tup((rest, b))) == a

    def test_min_intersection_commutes_and_is_bounded(self):
        a, b = cvbag(1, 1, 1, 2), cvbag(1, 2, 2, 4)
        ab = bag_min_intersection().fn(Tup((a, b)))
        assert ab == bag_min_intersection().fn(Tup((b, a)))
        for v in ab.support():
            assert ab.count(v) <= min(a.count(v), b.count(v))
        assert ab == cvbag(1, 2)
