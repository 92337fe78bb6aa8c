"""Tests for mapping families and preservation (Sections 2.4-2.5)."""

import pytest

from repro.mappings.families import (
    MappingFamily,
    preserves_constant,
    preserves_function,
    preserves_predicate,
    strictly_preserves_constant,
)
from repro.mappings.mapping import Mapping
from repro.types.ast import BOOL, INT
from repro.types.signatures import standard_signature
from repro.types.values import cvset


def mapping(pairs, **kw) -> Mapping:
    return Mapping(pairs, INT, INT, **kw)


class TestConstantPreservation:
    def test_regular_preservation(self):
        h = mapping({(7, 7), (7, 8), (1, 2)})
        assert preserves_constant(h, 7)
        assert not preserves_constant(h, 1)

    def test_strict_preservation(self):
        strict = mapping({(7, 7), (1, 2)})
        assert strictly_preserves_constant(strict, 7)
        # Associating 7 with another value breaks strictness both ways.
        assert not strictly_preserves_constant(mapping({(7, 7), (7, 8)}), 7)
        assert not strictly_preserves_constant(mapping({(7, 7), (1, 7)}), 7)

    def test_strict_requires_the_pair(self):
        assert not strictly_preserves_constant(mapping({(1, 2)}), 7)

    def test_strict_implies_regular(self):
        h = mapping({(7, 7), (1, 2)})
        assert strictly_preserves_constant(h, 7)
        assert preserves_constant(h, 7)

    def test_preservation_equals_singleton_extension(self):
        # H preserves c iff H^rel({c},{c}); strictly iff H^strong.
        from repro.mappings.extensions import SetRelExt, SetStrongExt

        h = mapping({(7, 7), (7, 8), (1, 2)})
        assert SetRelExt(h).holds(cvset(7), cvset(7)) == preserves_constant(h, 7)
        assert SetStrongExt(h).holds(
            cvset(7), cvset(7)
        ) == strictly_preserves_constant(h, 7)


class TestMappingFamily:
    def test_bool_mapping_rejected(self):
        bad = Mapping({(True, False)}, BOOL, BOOL)
        with pytest.raises(ValueError):
            MappingFamily({"bool": bad})

    def test_class_tests_delegate(self):
        h = mapping({(1, 10), (2, 20)}, source_domain=(1, 2), target_domain=(10, 20))
        fam = MappingFamily({"int": h})
        assert fam.is_functional()
        assert fam.is_injective()
        assert fam.is_total()
        assert fam.is_surjective()
        assert fam.is_bijective()

    def test_inverse(self):
        fam = MappingFamily({"int": mapping({(1, 10)})})
        inv = fam.inverse()
        assert inv["int"].holds(10, 1)


class TestFunctionPreservation:
    def test_neg_preserved_by_its_own_graph(self):
        sig = standard_signature()
        # h(x) = -x on a symmetric domain commutes with negation.
        h = mapping({(x, -x) for x in range(-2, 3)})
        fam = MappingFamily({"int": h})
        assert preserves_function(fam, sig["neg"])

    def test_succ_not_preserved_by_partial_shift(self):
        # A finite shift cannot preserve succ: the domain is not closed
        # under the function, so some related pair's successors fall
        # outside the mapping.
        sig = standard_signature()
        h = mapping({(x, x + 100) for x in range(4)})
        fam = MappingFamily({"int": h})
        assert not preserves_function(fam, sig["succ"])

    def test_succ_broken_by_reversal(self):
        sig = standard_signature()
        h = mapping({(0, 3), (1, 2), (2, 1), (3, 0)})
        fam = MappingFamily({"int": h})
        assert not preserves_function(fam, sig["succ"])


class TestPredicatePreservation:
    def test_even_preserved_by_parity_preserving_map(self):
        sig = standard_signature()
        h = mapping({(0, 2), (1, 3), (2, 4)})
        fam = MappingFamily({"int": h})
        assert preserves_predicate(fam, sig["even"])

    def test_even_broken_by_parity_flip(self):
        sig = standard_signature()
        h = mapping({(0, 1)})
        fam = MappingFamily({"int": h})
        assert not preserves_predicate(fam, sig["even"])

    def test_prop_2_13_negation_symmetry(self):
        # Preserving p iff preserving not-p (Prop 2.13).
        sig = standard_signature()
        odd = sig.add_symbol("odd", (INT,), BOOL, lambda x: x % 2 != 0)
        for pairs in [
            {(0, 2), (1, 3)},
            {(0, 1)},
            {(0, 0), (1, 0)},
        ]:
            fam = MappingFamily({"int": mapping(pairs)})
            assert preserves_predicate(fam, sig["even"]) == preserves_predicate(
                fam, odd
            )

    def test_binary_predicate(self):
        sig = standard_signature()
        # Order-preserving shift preserves lt.
        h = mapping({(x, x + 100) for x in range(4)})
        fam = MappingFamily({"int": h})
        assert preserves_predicate(fam, sig["lt"])
        # Order-reversing map does not.
        rev = mapping({(x, 10 - x) for x in range(4)})
        fam2 = MappingFamily({"int": rev})
        assert not preserves_predicate(fam2, sig["lt"])

    def test_non_predicate_rejected(self):
        sig = standard_signature()
        fam = MappingFamily({"int": mapping({(0, 0)})})
        with pytest.raises(ValueError):
            preserves_predicate(fam, sig["succ"])

    def test_equality_preserved_only_by_injective(self):
        # "only injective mappings preserve equality" (Section 2.5).
        sig = standard_signature()
        injective = MappingFamily({"int": mapping({(0, 10), (1, 11)})})
        collapsing = MappingFamily({"int": mapping({(0, 10), (1, 10)})})
        assert preserves_predicate(injective, sig["eq_int"])
        assert not preserves_predicate(collapsing, sig["eq_int"])


class TestFamilyExtension:
    def test_base_types_take_their_member_or_identity(self):
        from repro.mappings.mapping import IdentityRel
        from repro.types.ast import STR

        h = mapping({(1, 2)})
        fam = MappingFamily({"int": h})
        assert fam.extend(INT) is h
        assert isinstance(fam.extend(STR), IdentityRel)
        assert fam.extend(STR).holds("a", "a")
        assert not fam.extend(STR).holds("a", "b")

    def test_bool_extends_to_identity_on_truth_values(self):
        fam = MappingFamily({})
        assert set(fam.extend(BOOL).pairs()) == {(True, True), (False, False)}

    def test_open_types_rejected(self):
        from repro.types.ast import TypeError_, tvar

        with pytest.raises(TypeError_):
            MappingFamily({}).extend(tvar("X"))

    def test_lookup(self):
        h = mapping({(1, 2)})
        fam = MappingFamily({"int": h})
        assert "int" in fam
        assert "str" not in fam
        assert fam["int"] is h
        assert repr(fam) == "MappingFamily(int)"


class TestPreservationClosure:
    def test_inverse_of_a_strict_mapping_is_strict(self):
        h = mapping({(7, 7), (1, 2), (3, 2)})
        assert strictly_preserves_constant(h, 7)
        assert strictly_preserves_constant(h.inverse(), 7)

    def test_times_preserved_on_a_closed_carrier(self):
        # {0, 1} is closed under multiplication, so its identity
        # preserves times; swapping 0 and 1 does not.
        sig = standard_signature()
        same = MappingFamily({"int": mapping({(0, 0), (1, 1)})})
        swap = MappingFamily({"int": mapping({(0, 1), (1, 0)})})
        assert preserves_function(same, sig["times"])
        assert not preserves_function(swap, sig["times"])
