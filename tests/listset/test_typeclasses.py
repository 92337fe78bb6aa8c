"""Tests for s-to-l / l-to-s / LtoS type classifiers (Defs 4.8-4.12)."""


from repro.listset.typeclasses import (
    is_l_to_s,
    is_ltos,
    is_s_to_l,
    to_set_type,
)
from repro.types.ast import INT, Product, list_of, set_of, tvar
from repro.types.parser import parse_type


X = tvar("X")


class TestStoL:
    def test_flat_list_type_is_s_to_l(self):
        # Lists NOT under an arrow are fine.
        assert is_s_to_l(list_of(X))
        assert is_s_to_l(Product((list_of(X), INT)))

    def test_function_without_lists_is_s_to_l(self):
        assert is_s_to_l(parse_type("X -> bool"))
        assert is_s_to_l(parse_type("X -> Y -> Y"))

    def test_list_under_arrow_not_s_to_l(self):
        assert not is_s_to_l(parse_type("<X> -> bool"))
        assert not is_s_to_l(parse_type("X -> <Y>"))

    def test_forall_not_s_to_l(self):
        assert not is_s_to_l(parse_type("forall X. X"))


class TestLtoS:
    def test_argument_positions_must_be_s_to_l(self):
        assert is_l_to_s(parse_type("(X -> bool) -> <X> -> <X>"))
        assert not is_l_to_s(parse_type("(<X> -> bool) -> <X> -> <X>"))

    def test_result_lists_allowed(self):
        # <X> as a *top-level spine argument* is s-to-l (no arrow above
        # it inside itself), so sigma's tail is fine.
        assert is_l_to_s(parse_type("<X> -> <X>"))

    def test_list_producing_argument_rejected(self):
        assert not is_l_to_s(parse_type("(X -> <Y>) -> <X> -> <Y>"))

    def test_quantifier_rejected(self):
        assert not is_l_to_s(parse_type("forall X. <X>"))


class TestLtoSTop:
    def test_paper_examples(self):
        # Example 4.14 verbatim.
        assert is_ltos(parse_type("forall X. (X -> bool) -> <X> -> <X>"))
        assert not is_ltos(parse_type("forall X. (<X> -> bool) -> <X> -> <X>"))
        assert is_ltos(
            parse_type("forall X. forall Y. (X -> Y -> Y) -> Y -> <X> -> Y")
        )
        assert not is_ltos(
            parse_type("forall X. forall Y. (X -> <Y>) -> <X> -> <Y>")
        )

    def test_prelude_types(self):
        assert is_ltos(parse_type("forall X. <X> * <X> -> <X>"))   # append
        assert is_ltos(parse_type("forall X. <X> -> int"))          # count
        assert is_ltos(parse_type("forall X. X -> <X> -> <X>"))     # ins


class TestRelatedTypes:
    def test_to_set_type(self):
        assert to_set_type(list_of(X)) == set_of(X)
        assert to_set_type(parse_type("forall X. <X> * <X> -> <X>")) == parse_type(
            "forall X. {X} * {X} -> {X}"
        )
        assert to_set_type(
            parse_type("forall X. (X -> bool) -> <X> -> <X>")
        ) == parse_type("forall X. (X -> bool) -> {X} -> {X}")

    def test_nested_translation(self):
        t = list_of(Product((INT, list_of(X))))
        assert to_set_type(t) == set_of(Product((INT, set_of(X))))

    def test_bags_and_binders_survive(self):
        from repro.types.ast import bag_of, forall

        t = forall("X", bag_of(list_of(X)), requires_eq=True)
        assert to_set_type(t) == forall("X", bag_of(set_of(X)), requires_eq=True)

    def test_translation_is_idempotent(self):
        t = parse_type("forall X. (X -> bool) -> <<X>> -> {<X>}")
        once = to_set_type(t)
        assert to_set_type(once) == once
        assert once == parse_type("forall X. (X -> bool) -> {{X}} -> {{X}}")


class TestClassifierEdges:
    def test_list_inside_a_set_under_an_arrow(self):
        assert not is_s_to_l(parse_type("{<X>} -> bool"))
        assert is_s_to_l(parse_type("{<X>}"))

    def test_base_types_are_in_every_class(self):
        assert is_s_to_l(INT)
        assert is_l_to_s(INT)
        assert is_ltos(INT)

    def test_inner_quantifier_is_not_ltos(self):
        # Only an outermost forall prefix is allowed (Def 4.12).
        assert not is_ltos(parse_type("X -> forall Y. Y"))
