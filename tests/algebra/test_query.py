"""Tests for the Query abstraction and its combinators."""

from repro.algebra.operators import projection, select_eq, self_cross, union_op
from repro.algebra.query import Query, compose, pair_query
from repro.types.ast import INT, Product, SetType, set_of, tvar
from repro.types.values import CVSet, Tup, cvset, tup


class TestQueryBasics:
    def test_call(self):
        q = Query("inc-all", lambda s: CVSet(x + 1 for x in s),
                  set_of(INT), set_of(INT))
        assert q(cvset(1, 2)) == cvset(2, 3)

    def test_defined_at_all_types(self):
        assert projection((0,), 2).defined_at_all_types()
        poly = Query("id", lambda v: v, tvar("X"), tvar("X"))
        assert poly.defined_at_all_types()
        mono = Query("c", lambda v: v, set_of(INT), set_of(INT))
        assert not mono.defined_at_all_types()

    def test_instantiate(self):
        q = projection((0,), 2).instantiate({"X1": INT, "X2": INT})
        assert q.input_type == set_of(INT * INT)

    def test_repr_mentions_types(self):
        assert "{X1 * X2}" in repr(projection((0,), 2))


class TestComposition:
    def test_function_composition(self):
        q = compose(projection((0,), 2), select_eq(0, 1, 2))
        r = cvset(tup(1, 1), tup(1, 2))
        assert q.fn(r) == cvset(tup(1))

    def test_equality_flag_propagates(self):
        q = compose(projection((0,), 2), select_eq(0, 1, 2))
        assert q.uses_equality

    def test_output_type_tracks_inner_shape(self):
        # RxR after pi_1 produces pairs of 1-tuples; the composed type
        # must say so (regression for the unification fix).
        q = compose(self_cross(), projection((0,), 2))
        expected_element = Product(
            (Product((tvar("X1"),)), Product((tvar("X1"),)))
        )
        assert q.output_type == SetType(expected_element)

    def test_then_is_flipped_compose(self):
        a = projection((0,), 2)
        b = self_cross()
        assert a.then(b).name == compose(b, a).name


class TestPairQuery:
    def test_runs_both(self):
        q = pair_query(projection((0,), 2), projection((1,), 2))
        out = q.fn(cvset(tup(1, 2)))
        assert out == Tup((cvset(tup(1)), cvset(tup(2))))

    def test_composes_with_binary_operator(self):
        q = compose(union_op(), pair_query(projection((0,), 2),
                                           projection((1,), 2)))
        out = q.fn(cvset(tup(1, 2), tup(3, 4)))
        assert out == cvset(tup(1), tup(3), tup(2), tup(4))


class TestInstantiation:
    def test_keeps_function_and_flags(self):
        q = select_eq(0, 1, 2)
        inst = q.instantiate({"X1": INT})
        assert inst.fn is q.fn
        assert inst.name == q.name
        assert inst.uses_equality
        # The compared columns share X1, so both become int.
        assert inst.input_type == set_of(INT * INT)

    def test_unassigned_variables_stay(self):
        q = projection((1,), 2).instantiate({"X1": INT})
        assert q.output_type == set_of(Product((tvar("X2"),)))
        assert not q.defined_at_all_types()


class TestCombinatorTypes:
    def test_pair_query_type_and_flag(self):
        q = pair_query(projection((0,), 2), select_eq(0, 1, 2))
        assert q.input_type == projection((0,), 2).input_type
        assert str(q.output_type) == "{X1} * {X1 * X1}"
        assert q.uses_equality

    def test_compose_without_a_match_keeps_the_outer_output_type(self):
        # An int output matches no set pattern, so nothing is bound.
        inner = Query("size", lambda s: len(s), set_of(INT), INT)
        q = compose(self_cross(), inner)
        assert q.input_type == set_of(INT)
        assert q.output_type == self_cross().output_type

    def test_compose_runs_the_inner_query_first(self):
        inner = Query("inc", lambda s: CVSet(x + 1 for x in s),
                      set_of(INT), set_of(INT))
        q = compose(self_cross(), inner)
        assert q.fn(cvset(1)) == cvset(tup(2, 2))
        assert q.name == "RxR.inc"
