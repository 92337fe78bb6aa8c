"""Tests for base relational mappings (Section 2.2)."""

import pytest

from repro.types.ast import INT, STR
from repro.mappings.mapping import (
    ConstantGraphRel,
    IdentityRel,
    Mapping,
    Unenumerable,
)


def paper_k() -> Mapping:
    """The mapping K of Section 2.2 — functional in neither direction."""
    return Mapping(
        {("e", "a"), ("i", "a"), ("f", "b"), ("j", "b"), ("g", "c"), ("g", "d")},
        STR,
        STR,
    )


class TestBasics:
    def test_holds(self):
        k = paper_k()
        assert k.holds("e", "a")
        assert not k.holds("e", "b")

    def test_images_and_preimages(self):
        k = paper_k()
        assert set(k.images("g")) == {"c", "d"}
        assert set(k.preimages("a")) == {"e", "i"}
        assert set(k.images("zzz")) == set()

    def test_domain_codomain(self):
        k = paper_k()
        assert k.domain() == {"e", "i", "f", "j", "g"}
        assert k.codomain() == {"a", "b", "c", "d"}

    def test_len_eq_hash(self):
        k1, k2 = paper_k(), paper_k()
        assert len(k1) == 6
        assert k1 == k2
        assert hash(k1) == hash(k2)

    def test_pairs_enumeration(self):
        assert set(paper_k().pairs()) == {
            ("e", "a"), ("i", "a"), ("f", "b"), ("j", "b"), ("g", "c"), ("g", "d")
        }


class TestClassification:
    def test_paper_k_not_functional(self):
        k = paper_k()
        assert not k.is_functional()
        assert not k.is_injective()

    def test_functional_not_injective(self):
        h = Mapping({(1, 10), (2, 10)}, INT, INT)
        assert h.is_functional()
        assert not h.is_injective()

    def test_injective(self):
        h = Mapping({(1, 10), (2, 20)}, INT, INT)
        assert h.is_injective()

    def test_totality_needs_declared_domain(self):
        h = Mapping({(1, 10)}, INT, INT, source_domain=(1, 2))
        assert not h.is_total()
        h2 = Mapping({(1, 10), (2, 10)}, INT, INT, source_domain=(1, 2))
        assert h2.is_total()

    def test_surjectivity(self):
        h = Mapping({(1, 10)}, INT, INT, target_domain=(10, 20))
        assert not h.is_surjective()

    def test_bijective(self):
        h = Mapping(
            {(1, 10), (2, 20)},
            INT,
            INT,
            source_domain=(1, 2),
            target_domain=(10, 20),
        )
        assert h.is_bijective()


class TestAlgebra:
    def test_compose(self):
        h1 = Mapping({(1, 10), (2, 20)}, INT, INT)
        h2 = Mapping({(10, 100), (20, 200), (20, 201)}, INT, INT)
        h3 = h1.compose(h2)
        assert set(h3.pairs()) == {(1, 100), (2, 200), (2, 201)}

    def test_inverse_roundtrip(self):
        k = paper_k()
        assert set(k.inverse().pairs()) == {(y, x) for x, y in k.pairs()}
        assert k.inverse().inverse() == k

    def test_inverse_of_function_not_function(self):
        # The paper's point: inverses of (even strong) homomorphisms
        # need not be functions.
        h = Mapping({(1, 10), (2, 10)}, INT, INT)
        assert h.is_functional()
        assert not h.inverse().is_functional()


class TestIdentityRel:
    def test_unbounded_identity(self):
        i = IdentityRel(INT)
        assert i.holds(3, 3)
        assert not i.holds(3, 4)
        assert list(i.images(3)) == [3]

    def test_carrier_restricts(self):
        i = IdentityRel(INT, (1, 2))
        assert i.holds(1, 1)
        assert not i.holds(3, 3)
        assert set(i.pairs()) == {(1, 1), (2, 2)}

    def test_unbounded_pairs_unenumerable(self):
        with pytest.raises(Unenumerable):
            list(IdentityRel(INT).pairs())

    def test_inverse_is_self(self):
        i = IdentityRel(INT)
        assert i.inverse() is i


class TestConstantGraphRel:
    def test_graph_semantics(self):
        g = ConstantGraphRel(lambda x: x + 1, INT, INT, carrier=(1, 2))
        assert g.holds(1, 2)
        assert not g.holds(1, 3)
        assert not g.holds(5, 6)  # outside carrier
        assert set(g.pairs()) == {(1, 2), (2, 3)}
        assert set(g.preimages(3)) == {2}


class TestStructure:
    def test_image_and_preimage_sets(self):
        k = paper_k()
        assert k.image_set("g") == frozenset({"c", "d"})
        assert k.preimage_set("b") == frozenset({"f", "j"})
        assert k.image_set("zzz") == frozenset()
        assert k.preimage_set("zzz") == frozenset()

    def test_equality_respects_the_types(self):
        assert Mapping({(1, 1)}, INT, INT) != Mapping({(1, 1)}, INT, STR)

    def test_repr_shows_at_most_eight_pairs(self):
        text = repr(Mapping({(i, i) for i in range(10)}, INT, INT))
        assert text.count("->") == 8
        assert ", ..." in text


class TestCompositionClasses:
    """Prop 2.8(iii): H1 o H2 against the declared outer domains."""

    def test_composite_of_bijections_is_bijective(self):
        h1 = Mapping({(1, 10), (2, 20)}, INT, INT,
                     source_domain=(1, 2), target_domain=(10, 20))
        h2 = Mapping({(10, "a"), (20, "b")}, INT, STR,
                     source_domain=(10, 20), target_domain=("a", "b"))
        h3 = h1.compose(h2)
        assert h3.source == INT and h3.target == STR
        assert h3.is_bijective()

    def test_composite_keeps_the_outer_declared_domains(self):
        h1 = Mapping({(1, 10)}, INT, INT, source_domain=(1, 2))
        h2 = Mapping({(10, 100)}, INT, INT, target_domain=(100, 200))
        h3 = h1.compose(h2)
        assert set(h3.pairs()) == {(1, 100)}
        assert not h3.is_total()
        assert not h3.is_surjective()

    def test_composite_through_a_missing_middle_is_empty(self):
        h1 = Mapping({(1, 10)}, INT, INT)
        h2 = Mapping({(11, 100)}, INT, INT)
        assert len(h1.compose(h2)) == 0

    def test_inverse_swaps_totality_and_surjectivity(self):
        h = Mapping({(1, 10), (2, 10)}, INT, INT,
                    source_domain=(1, 2), target_domain=(10, 20))
        assert h.is_total() and not h.is_surjective()
        inv = h.inverse()
        assert inv.is_surjective() and not inv.is_total()
        assert inv.source_domain == frozenset({10, 20})


class TestGenericInverse:
    def test_inverse_of_a_graph_swaps_every_view(self):
        g = ConstantGraphRel(lambda x: x * 2, INT, INT, carrier=(1, 2))
        inv = g.inverse()
        assert inv.source == INT and inv.target == INT
        assert inv.holds(4, 2)
        assert not inv.holds(2, 4)
        assert set(inv.images(4)) == {2}
        assert set(inv.preimages(1)) == {2}
        assert set(inv.pairs()) == {(2, 1), (4, 2)}
        assert inv.inverse() is g

    def test_base_relation_enumerates_nothing(self):
        from repro.mappings.mapping import Rel

        class Opaque(Rel):
            source = target = INT

            def holds(self, x, y, budget=None):
                return x == y

        rel = Opaque()
        for enumerate_ in (lambda: rel.images(1), lambda: rel.preimages(1),
                           rel.pairs):
            with pytest.raises(Unenumerable):
                enumerate_()
        assert rel.inverse().holds(2, 2)


class TestCarrierViews:
    def test_identity_preimages_respect_the_carrier(self):
        i = IdentityRel(INT, (1, 2))
        assert list(i.preimages(2)) == [2]
        assert list(i.images(3)) == []

    def test_graph_images_outside_the_carrier(self):
        g = ConstantGraphRel(lambda x: x + 1, INT, INT, carrier=(1,))
        assert list(g.images(1)) == [2]
        assert list(g.images(5)) == []
