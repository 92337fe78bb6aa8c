"""Tests for the type AST (Definitions 2.1, 2.7, 4.1)."""

import pytest

from repro.types.ast import (
    BOOL,
    INT,
    STR,
    UNIT,
    BagType,
    ForAll,
    FuncType,
    ListType,
    Product,
    SetType,
    TypeError_,
    alpha_equal,
    bag_of,
    contains_constructor,
    forall,
    free_type_vars,
    func,
    list_of,
    rename_bound,
    set_of,
    strip_foralls,
    substitute,
    subtypes,
    tvar,
)


class TestConstruction:
    def test_base_types_are_named(self):
        assert INT.name == "int"
        assert BOOL.name == "bool"

    def test_mul_builds_flat_products(self):
        t = INT * STR * BOOL
        assert isinstance(t, Product)
        assert t.components == (INT, STR, BOOL)

    def test_nested_products_stay_nested_when_explicit(self):
        inner = Product((INT, STR))
        t = Product((inner, inner))
        assert t.arity == 2
        assert t.components[0] is inner

    def test_rshift_builds_function_types(self):
        t = INT >> BOOL
        assert t == FuncType(INT, BOOL)

    def test_func_right_associates(self):
        t = func(INT, STR, BOOL)
        assert t == FuncType(INT, FuncType(STR, BOOL))

    def test_unit_is_empty_product(self):
        assert UNIT.components == ()

    def test_product_rejects_non_types(self):
        with pytest.raises(TypeError_):
            Product((INT, 42))


class TestPrinting:
    def test_set_syntax(self):
        assert str(set_of(INT)) == "{int}"

    def test_bag_syntax(self):
        assert str(bag_of(INT)) == "{|int|}"

    def test_list_syntax(self):
        assert str(list_of(STR)) == "<str>"

    def test_product_parenthesizes_nested_products(self):
        inner = Product((INT, INT))
        assert str(Product((inner, STR))) == "(int * int) * str"

    def test_forall_syntax(self):
        t = forall("X", func(tvar("X"), tvar("X")))
        assert str(t) == "forall X. X -> X"

    def test_eq_variable_marker(self):
        assert str(tvar("X", requires_eq=True)) == "X="

    def test_arrow_argument_parenthesized(self):
        t = func(func(INT, BOOL), STR)
        assert str(t) == "(int -> bool) -> str"


class TestFreeVars:
    def test_base_type_closed(self):
        assert free_type_vars(INT) == frozenset()

    def test_variable_free(self):
        assert free_type_vars(tvar("X")) == {"X"}

    def test_forall_binds(self):
        t = forall("X", func(tvar("X"), tvar("Y")))
        assert free_type_vars(t) == {"Y"}

    def test_collects_across_constructors(self):
        t = set_of(Product((tvar("A"), list_of(tvar("B")))))
        assert free_type_vars(t) == {"A", "B"}


class TestSubstitution:
    def test_simple(self):
        t = set_of(tvar("X"))
        assert substitute(t, {"X": INT}) == set_of(INT)

    def test_shadowed_variable_untouched(self):
        t = forall("X", func(tvar("X"), tvar("X")))
        assert substitute(t, {"X": INT}) == t

    def test_capture_avoidance(self):
        # forall X. Y -> X with Y := X must rename the binder.
        t = forall("X", func(tvar("Y"), tvar("X")))
        out = substitute(t, {"Y": tvar("X")})
        assert isinstance(out, ForAll)
        assert out.var != "X"
        assert out.body.arg == tvar("X")

    def test_substitute_into_product(self):
        t = Product((tvar("X"), tvar("Y")))
        out = substitute(t, {"X": INT, "Y": STR})
        assert out == Product((INT, STR))


class TestAlphaEquality:
    def test_renamed_binders_equal(self):
        a = forall("X", func(tvar("X"), tvar("X")))
        b = forall("Z", func(tvar("Z"), tvar("Z")))
        assert alpha_equal(a, b)

    def test_different_structure_not_equal(self):
        a = forall("X", func(tvar("X"), tvar("X")))
        b = forall("X", func(tvar("X"), INT))
        assert not alpha_equal(a, b)

    def test_rename_bound_canonicalizes(self):
        t = forall("A", forall("B", func(tvar("A"), tvar("B"))))
        out = rename_bound(t)
        assert str(out) == "forall X0. forall X1. X0 -> X1"


class TestPredicates:
    def test_contains_constructor(self):
        t = func(INT, set_of(list_of(STR)))
        assert contains_constructor(t, SetType)
        assert contains_constructor(t, ListType)
        assert not contains_constructor(t, BagType)


class TestStripForalls:
    def test_strips_prefix(self):
        t = forall("X", forall("Y", func(tvar("X"), tvar("Y")), requires_eq=True))
        binders, body = strip_foralls(t)
        assert binders == (("X", False), ("Y", True))
        assert body == func(tvar("X"), tvar("Y"))

    def test_no_quantifier(self):
        binders, body = strip_foralls(INT)
        assert binders == ()
        assert body == INT


class TestSubtypes:
    def test_preorder_walk(self):
        t = set_of(Product((INT, list_of(STR))))
        nodes = list(subtypes(t))
        assert t in nodes
        assert INT in nodes
        assert list_of(STR) in nodes
        assert STR in nodes

    def test_forall_body_walked(self):
        t = forall("X", func(tvar("X"), INT))
        assert INT in list(subtypes(t))


class TestStructuralEdges:
    def test_substitute_through_collections_and_arrows(self):
        t = func(bag_of(tvar("X")), list_of(Product((tvar("X"), tvar("Y")))))
        out = substitute(t, {"X": INT})
        assert out == func(bag_of(INT), list_of(Product((INT, tvar("Y")))))

    def test_rename_bound_keeps_free_variables(self):
        t = forall("A", func(tvar("A"), tvar("Free")))
        out = rename_bound(t, prefix="Z")
        assert str(out) == "forall Z0. Z0 -> Free"
        assert free_type_vars(out) == {"Free"}

    def test_alpha_equality_respects_equality_markers(self):
        a = forall("X", tvar("X"), requires_eq=True)
        b = forall("Y", tvar("Y"))
        assert not alpha_equal(a, b)
        assert alpha_equal(a, forall("Y", tvar("Y"), requires_eq=True))

    def test_strip_foralls_stops_at_a_non_prefix_quantifier(self):
        inner = forall("Y", tvar("Y"))
        binders, body = strip_foralls(func(INT, inner))
        assert binders == ()
        assert contains_constructor(body, ForAll)

    def test_function_free_variables(self):
        t = func(tvar("A"), forall("B", func(tvar("B"), tvar("C"))))
        assert free_type_vars(t) == {"A", "C"}
