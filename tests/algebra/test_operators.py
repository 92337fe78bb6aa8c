"""Tests for the relational operator catalog (Section 3)."""


from repro.algebra.operators import (
    cross_op,
    difference_op,
    eq_adom,
    even_query,
    full_complement,
    hat_select_eq,
    identity_query,
    intersection_op,
    projection,
    select_const,
    select_eq,
    self_compose,
    self_cross,
    union_op,
)
from repro.types.ast import INT
from repro.types.values import CVSet, Tup, cvset, tup


R = cvset(tup(1, 2), tup(2, 3), tup(1, 3))
S = cvset(tup(1, 2), tup(3, 4))


class TestProjection:
    def test_projects_columns(self):
        assert projection((0,), 2).fn(R) == cvset(tup(1), tup(2))

    def test_reorders(self):
        assert projection((1, 0), 2).fn(S) == cvset(tup(2, 1), tup(4, 3))

    def test_duplicates_collapse(self):
        r = cvset(tup(1, 2), tup(1, 3))
        assert projection((0,), 2).fn(r) == cvset(tup(1))

    def test_type_is_polymorphic(self):
        q = projection((0,), 2)
        assert q.defined_at_all_types()
        assert not q.uses_equality


class TestSelection:
    def test_select_eq(self):
        r = cvset(tup(1, 1), tup(1, 2))
        assert select_eq(0, 1, 2).fn(r) == cvset(tup(1, 1))

    def test_select_eq_marks_equality(self):
        assert select_eq(0, 1, 2).uses_equality

    def test_hat_select_drops_duplicate_column(self):
        r = cvset(tup(1, 1), tup(1, 2))
        assert hat_select_eq(0, 1, 2).fn(r) == cvset(tup(1))

    def test_hat_select_three_columns(self):
        r = cvset(tup(1, 1, "x"), tup(1, 2, "y"))
        assert hat_select_eq(0, 1, 3).fn(r) == cvset(tup(1, "x"))

    def test_select_const(self):
        r = cvset(tup(7, 1), tup(8, 2))
        assert select_const(0, 7, 2, INT).fn(r) == cvset(tup(7, 1))


class TestBinaryOperators:
    def test_union(self):
        assert union_op().fn(Tup((R, S))) == R.union(S)

    def test_intersection(self):
        assert intersection_op().fn(Tup((R, S))) == cvset(tup(1, 2))

    def test_difference(self):
        assert difference_op().fn(Tup((R, S))) == cvset(tup(2, 3), tup(1, 3))

    def test_cross(self):
        out = cross_op().fn(Tup((cvset(1), cvset("a", "b"))))
        assert out == cvset(tup(1, "a"), tup(1, "b"))


class TestSelfOperators:
    def test_self_cross(self):
        r = cvset("a", "b")
        out = self_cross().fn(r)
        assert len(out) == 4
        assert tup("a", "b") in out

    def test_self_compose_is_paper_q1(self):
        # Example 2.2's computation.
        from repro.engine.workload import paper_r1

        assert self_compose().fn(paper_r1()) == cvset(tup("e", "g"), tup("i", "g"))

    def test_self_compose_empty_on_broken_chain(self):
        from repro.engine.workload import paper_r3

        assert self_compose().fn(paper_r3()) == CVSet()


class TestDomainOperators:
    def test_eq_adom(self):
        out = eq_adom().fn(cvset(1, 2))
        assert out == cvset(tup(1, 1), tup(2, 2))

    def test_full_complement(self):
        q = full_complement([0, 1], 1)
        assert q.fn(cvset(tup(0))) == cvset(tup(1))

    def test_even(self):
        assert even_query().fn(cvset()) is True
        assert even_query().fn(cvset(1)) is False
        assert even_query().fn(cvset(1, 2)) is True


class TestOtherOperators:
    def test_identity(self):
        assert identity_query().fn(R) == R


class TestOperatorTypes:
    """The type each operator declares is what the genericity checks
    instantiate, so it has to match the values the operator builds."""

    def test_select_eq_ties_the_compared_columns(self):
        q = select_eq(0, 2, 3)
        assert str(q.input_type) == "{X1 * X2 * X1}"
        assert q.output_type == q.input_type

    def test_hat_select_output_drops_the_second_column(self):
        q = hat_select_eq(0, 1, 3)
        assert str(q.input_type) == "{X1 * X1 * X3}"
        assert str(q.output_type) == "{X1 * X3}"

    def test_select_const_fixes_the_selected_column(self):
        q = select_const(0, 7, 2, INT)
        assert str(q.input_type) == "{int * X2}"
        assert q.name == "sigma[1=7]"
        assert not q.defined_at_all_types()

    def test_cross_pairs_two_variables(self):
        q = cross_op()
        assert str(q.input_type) == "{X} * {Y}"
        assert str(q.output_type) == "{X * Y}"

    def test_self_operators_square_their_input(self):
        for q in (self_cross(), eq_adom()):
            assert str(q.input_type) == "{X}"
            assert str(q.output_type) == "{X * X}"

    def test_even_is_boolean(self):
        assert str(even_query().output_type) == "bool"

    def test_identity_at_a_given_type(self):
        q = identity_query(INT)
        assert q.input_type == q.output_type == INT
        assert q.fn(3) == 3

    def test_equality_flags_separate_the_generic_core(self):
        # Prop 3.1's fully generic core tests no equality; every other
        # operator of the catalog does.
        core = [projection((0,), 2), union_op(), cross_op(), self_cross(),
                identity_query()]
        assert not any(q.uses_equality for q in core)
        equality = [select_eq(0, 1, 2), hat_select_eq(0, 1, 2),
                    select_const(0, 7, 2, INT), intersection_op(),
                    difference_op(), self_compose(), eq_adom(), even_query(),
                    full_complement([0], 1)]
        assert all(q.uses_equality for q in equality)


class TestOperatorSemantics:
    def test_select_const_without_a_match_is_empty(self):
        assert select_const(1, "x", 2, INT).fn(R) == CVSet()

    def test_intersection_and_difference_split_the_left_operand(self):
        pair = Tup((R, S))
        inter = intersection_op().fn(pair)
        diff = difference_op().fn(pair)
        assert inter.union(diff) == R
        assert inter.intersection(diff) == CVSet()

    def test_cross_with_an_empty_side_is_empty(self):
        assert cross_op().fn(Tup((cvset(1, 2), CVSet()))) == CVSet()
        assert cross_op().fn(Tup((CVSet(), cvset(1)))) == CVSet()

    def test_eq_adom_reads_the_atoms_inside_tuples(self):
        out = eq_adom().fn(cvset(tup(1, 2), tup(2, 3)))
        assert out == cvset(tup(1, 1), tup(2, 2), tup(3, 3))

    def test_full_complement_of_a_binary_relation(self):
        q = full_complement([0, 1], 2)
        r = cvset(tup(0, 1))
        out = q.fn(r)
        assert out == cvset(tup(0, 0), tup(1, 0), tup(1, 1))
        assert q.fn(out) == r

    def test_self_compose_follows_paths_of_length_two(self):
        r = cvset(tup(1, 2), tup(2, 3), tup(3, 4))
        assert self_compose().fn(r) == cvset(tup(1, 3), tup(2, 4))
