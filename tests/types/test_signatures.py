"""Tests for signatures and interpreted symbols (Section 2 preamble)."""

import pytest

from repro.types.ast import INT, FuncType, TypeError_
from repro.types.signatures import Signature, standard_signature


class TestSignature:
    def test_bool_always_present(self):
        sig = Signature()
        assert "bool" in sig.base_types

    def test_add_and_call_symbol(self):
        sig = Signature()
        double = sig.add_symbol("double", (INT,), INT, lambda x: 2 * x)
        assert double(21) == 42
        assert sig["double"] is double
        assert "double" in sig

    def test_arity_enforced(self):
        sig = Signature()
        plus = sig.add_symbol("plus", (INT, INT), INT, lambda x, y: x + y)
        with pytest.raises(TypeError_):
            plus(1)

    def test_predicate_classification(self):
        sig = standard_signature()
        assert sig["even"].is_predicate
        assert not sig["succ"].is_predicate
        assert sig["even"] in sig.predicates()
        assert sig["succ"] in sig.functions()

    def test_curried_type(self):
        sig = standard_signature()
        assert sig["plus"].type == FuncType(INT, FuncType(INT, INT))


class TestStandardSignature:
    def test_interpreted_semantics(self):
        sig = standard_signature()
        assert sig["succ"](3) == 4
        assert sig["plus"](2, 3) == 5
        assert sig["even"](4) is True
        assert sig["lt"](1, 2) is True
        assert sig["concat"]("a", "b") == "ab"
        assert sig["not"](True) is False

    def test_expected_base_types(self):
        sig = standard_signature()
        for name in ("int", "str", "float", "bool"):
            assert name in sig.base_types


class TestSignatureStructure:
    def test_functions_and_predicates_partition_the_symbols(self):
        sig = standard_signature()
        functions = {s.name for s in sig.functions()}
        predicates = {s.name for s in sig.predicates()}
        assert not functions & predicates
        assert functions | predicates == set(sig.symbols)
        assert {"succ", "plus", "concat"} <= functions
        assert {"even", "lt", "not"} <= predicates

    def test_redeclaring_a_symbol_replaces_it(self):
        sig = Signature()
        sig.add_symbol("f", (INT,), INT, lambda x: x)
        g = sig.add_symbol("f", (INT,), INT, lambda x: x + 1)
        assert sig["f"] is g
        assert sig["f"](1) == 2
        assert len(sig.symbols) == 1

    def test_nullary_symbol_type_is_its_result(self):
        sig = Signature()
        zero = sig.add_symbol("zero", (), INT, lambda: 0)
        assert zero.arity == 0
        assert zero.type == INT
        assert zero() == 0

    def test_unknown_symbol(self):
        sig = standard_signature()
        assert "nope" not in sig
        with pytest.raises(KeyError):
            sig["nope"]

    def test_predicate_types(self):
        from repro.types.ast import BOOL, STR

        sig = standard_signature()
        assert sig["even"].type == FuncType(INT, BOOL)
        assert sig["eq_str"].arity == 2
        assert sig["eq_str"].type == FuncType(STR, FuncType(STR, BOOL))
