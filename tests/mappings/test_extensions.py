"""Tests for extension constructors (Definitions 2.3-2.5, Prop 2.8)."""

import pytest

from repro.mappings.extensions import (
    REL,
    BagRelExt,
    BagStrongExt,
    ListRel,
    ProductRel,
    SetRelExt,
    SetStrongExt,
    extend_along,
)
from repro.mappings.families import MappingFamily
from repro.mappings.mapping import IdentityRel, Mapping
from repro.types.ast import (
    BOOL,
    INT,
    STR,
    Product,
    TypeError_,
    forall,
    list_of,
    set_of,
    tvar,
)
from repro.types.values import cvbag, cvlist, cvset, tup


def h_int() -> Mapping:
    """A many-to-many mapping on small int domains."""
    return Mapping({(1, 10), (1, 11), (2, 11), (3, 12)}, INT, INT)


class TestProductRel:
    def test_componentwise(self):
        rel = ProductRel((h_int(), h_int()))
        assert rel.holds(tup(1, 2), tup(10, 11))
        assert rel.holds(tup(1, 1), tup(10, 11))  # independent components
        assert not rel.holds(tup(1, 2), tup(12, 11))

    def test_arity_mismatch(self):
        rel = ProductRel((h_int(),))
        assert not rel.holds(tup(1, 2), tup(10, 11))
        assert not rel.holds(1, 10)

    def test_images(self):
        rel = ProductRel((h_int(), h_int()))
        images = set(rel.images(tup(1, 3)))
        assert images == {tup(10, 12), tup(11, 12)}

    def test_rel_extension_maps_tuple_fields_independently(self):
        # The Q4 discussion: [a, a] can map to [b, c] under rel.
        h = Mapping({("a", "b"), ("a", "c")}, STR, STR)
        rel = ProductRel((h, h))
        assert rel.holds(tup("a", "a"), tup("b", "c"))


class TestListRel:
    def test_equal_length_pointwise(self):
        rel = ListRel(h_int())
        assert rel.holds(cvlist(1, 2), cvlist(10, 11))
        assert rel.holds(cvlist(1, 2), cvlist(11, 11))
        assert not rel.holds(cvlist(1, 2), cvlist(10,))
        assert not rel.holds(cvlist(1), cvlist(12))

    def test_empty_lists_related(self):
        assert ListRel(h_int()).holds(cvlist(), cvlist())

    def test_order_preserved(self):
        h = Mapping({(1, 10), (2, 20)}, INT, INT)
        rel = ListRel(h)
        assert rel.holds(cvlist(1, 2), cvlist(10, 20))
        assert not rel.holds(cvlist(1, 2), cvlist(20, 10))

    def test_images(self):
        rel = ListRel(h_int())
        assert set(rel.images(cvlist(1))) == {cvlist(10), cvlist(11)}


class TestSetRelExt:
    def test_two_way_cover(self):
        rel = SetRelExt(h_int())
        assert rel.holds(cvset(1, 2), cvset(10, 11))
        # 12 has no preimage in {1, 2}.
        assert not rel.holds(cvset(1, 2), cvset(10, 12))
        # 3 has no image in {10, 11}.
        assert not rel.holds(cvset(1, 3), cvset(10, 11))

    def test_empty_sets(self):
        rel = SetRelExt(h_int())
        assert rel.holds(cvset(), cvset())
        assert not rel.holds(cvset(1), cvset())

    def test_non_injective_collapse(self):
        # A homomorphic image can be smaller.
        h = Mapping({(1, 10), (2, 10)}, INT, INT)
        assert SetRelExt(h).holds(cvset(1, 2), cvset(10))

    def test_images_enumeration(self):
        rel = SetRelExt(h_int())
        images = set(rel.images(cvset(1)))
        assert images == {cvset(10), cvset(11), cvset(10, 11)}

    def test_preimages_enumeration(self):
        rel = SetRelExt(h_int())
        pre = set(rel.preimages(cvset(12)))
        assert pre == {cvset(3)}


class TestSetStrongExt:
    def test_strong_requires_maximality(self):
        # h collapses {1,2} onto {10}; {1} -> {10} is rel but NOT strong
        # because 2 also maps to 10 (R1 not maximal).
        h = Mapping({(1, 10), (2, 10)}, INT, INT)
        strong = SetStrongExt(h)
        rel = SetRelExt(h)
        assert rel.holds(cvset(1), cvset(10))
        assert not strong.holds(cvset(1), cvset(10))
        assert strong.holds(cvset(1, 2), cvset(10))

    def test_strong_image_unique(self):
        strong = SetStrongExt(h_int())
        images = list(strong.images(cvset(3)))
        assert images == [cvset(12)]

    def test_strong_image_may_not_exist(self):
        strong = SetStrongExt(h_int())
        # maximal image of {1} is {10, 11}, whose maximal preimage is
        # {1, 2} != {1}: no strong image.
        assert list(strong.images(cvset(1))) == []

    def test_strong_implies_rel(self):
        strong = SetStrongExt(h_int())
        rel = SetRelExt(h_int())
        for left, right in strong.pairs():
            assert rel.holds(left, right)

    def test_chandra_equivalence_for_functions(self):
        # For functional h, strong == Chandra's strong homomorphism:
        # r1(x) <-> r2(h(x)).
        h = Mapping({(1, 10), (2, 10), (3, 12)}, INT, INT)
        strong = SetStrongExt(h)
        r2 = cvset(10)
        # preimage of {10} is {1, 2}.
        assert strong.holds(cvset(1, 2), r2)
        assert not strong.holds(cvset(1), r2)
        assert not strong.holds(cvset(1, 2, 3), r2)


class TestBagExtensions:
    def test_bag_rel_on_support(self):
        rel = BagRelExt(h_int())
        assert rel.holds(cvbag(1, 1, 2), cvbag(10, 11))
        assert not rel.holds(cvbag(3), cvbag(10))

    def test_bag_strong_needs_mass(self):
        h = Mapping({(1, 10), (2, 10)}, INT, INT)
        strong = BagStrongExt(h)
        assert strong.holds(cvbag(1, 2), cvbag(10, 10))
        assert not strong.holds(cvbag(1, 2), cvbag(10))

    def test_bag_type_mismatch(self):
        assert not BagRelExt(h_int()).holds(cvset(1), cvbag(10))


class TestExtendFamily:
    """``MappingFamily.extend``: ``extend_along`` with the genericity
    leaf rule."""

    def test_nested_extension(self):
        rel = MappingFamily({"int": h_int()}).extend(set_of(set_of(INT)), REL)
        assert rel.holds(cvset(cvset(1)), cvset(cvset(10)))

    def test_bool_forced_identity(self):
        bad = Mapping({(True, False)}, BOOL, BOOL)
        with pytest.raises(ValueError):
            MappingFamily({"bool": bad})
        rel = MappingFamily({"int": h_int()}).extend(set_of(BOOL), REL)
        # bool always takes identity on {True, False}.
        assert isinstance(rel.inner, IdentityRel)
        assert rel.inner.carrier == {True, False}
        assert rel.holds(cvset(True), cvset(True))
        assert not rel.holds(cvset(True), cvset(False))

    def test_unmapped_base_type_identity(self):
        rel = MappingFamily({"int": h_int()}).extend(set_of(STR), REL)
        assert rel.holds(cvset("a"), cvset("a"))
        assert not rel.holds(cvset("a"), cvset("b"))

    def test_type_variable_rejected(self):
        with pytest.raises(TypeError_):
            MappingFamily({}).extend(set_of(tvar("X")), REL)

    def test_forall_rejected(self):
        with pytest.raises(TypeError_):
            MappingFamily({"int": h_int()}).extend(forall("X", tvar("X")), REL)

    def test_unknown_mode_rejected(self):
        with pytest.raises(TypeError_):
            MappingFamily({}).extend(set_of(INT), "weird")

    def test_mixed_types(self):
        t = set_of(Product((INT, list_of(INT))))
        rel = MappingFamily({"int": h_int()}).extend(t, REL)
        assert rel.holds(
            cvset(tup(1, cvlist(2, 3))), cvset(tup(10, cvlist(11, 12)))
        )


class TestExtendAlong:
    def test_variables_take_assigned_relations(self):
        t = set_of(tvar("X"))
        rel = extend_along(t, lambda node: h_int(), REL)
        assert rel.holds(cvset(1), cvset(10))

    def test_independent_variables(self):
        # zip-style: same domain, different relations per variable.
        h1 = Mapping({(1, 10)}, INT, INT)
        h2 = Mapping({(1, 99)}, INT, INT)
        t = Product((tvar("X"), tvar("Y")))
        rel = extend_along(t, lambda node: {"X": h1, "Y": h2}[node.name], REL)
        assert rel.holds(tup(1, 1), tup(10, 99))
        assert not rel.holds(tup(1, 1), tup(99, 10))
