"""Tests for value/type checking."""

import pytest

from repro.types.ast import (
    BOOL,
    FLOAT,
    INT,
    STR,
    Product,
    TypeError_,
    bag_of,
    list_of,
    set_of,
)
from repro.types.typecheck import atom_type, check_value
from repro.types.values import cvbag, cvlist, cvset, tup


class TestAtomType:
    def test_bool_before_int(self):
        # Python's bool subclasses int; our typing keeps them apart.
        assert atom_type(True) == BOOL
        assert atom_type(1) == INT

    def test_str_and_float(self):
        assert atom_type("x") == STR
        assert atom_type(1.5) == FLOAT

    def test_non_atom_rejected(self):
        with pytest.raises(TypeError_):
            atom_type(tup(1))


class TestCheckValue:
    def test_atoms(self):
        assert check_value(3, INT)
        assert not check_value(3, STR)
        assert check_value(True, BOOL)
        assert not check_value(1, BOOL)

    def test_tuples(self):
        assert check_value(tup(1, "a"), INT * STR)
        assert not check_value(tup(1, "a"), STR * INT)
        assert not check_value(tup(1), INT * STR)

    def test_sets(self):
        assert check_value(cvset(1, 2), set_of(INT))
        assert not check_value(cvset(1, "a"), set_of(INT))
        assert check_value(cvset(), set_of(INT))

    def test_bags_and_lists(self):
        assert check_value(cvbag(1, 1), bag_of(INT))
        assert check_value(cvlist("a"), list_of(STR))
        assert not check_value(cvlist("a"), set_of(STR))

    def test_nesting(self):
        t = set_of(Product((INT, list_of(set_of(STR)))))
        v = cvset(tup(1, cvlist(cvset("a"), cvset())))
        assert check_value(v, t)

    def test_custom_domain(self):
        from repro.types.ast import BaseType

        dom = BaseType("dom")
        members = {"dom": lambda v: isinstance(v, str) and v.startswith("d")}
        assert check_value("d1", dom, members)
        assert not check_value("x1", dom, members)


class TestCheckValueEdges:
    def test_type_variables_hold_no_value(self):
        # check_value decides monomorphic types only.
        from repro.types.ast import tvar

        assert not check_value(1, tvar("X"))
        assert not check_value(cvset(1), set_of(tvar("X")))
        assert check_value(cvset(), set_of(tvar("X")))  # vacuously

    def test_bool_is_not_an_int(self):
        assert not check_value(cvset(True), set_of(INT))
        assert not check_value(1.0, INT)
        assert check_value(1.0, FLOAT)

    def test_bag_checks_every_distinct_member(self):
        assert check_value(cvbag(1, 1, 2), bag_of(INT))
        assert not check_value(cvbag(1, 1, "a"), bag_of(INT))
        assert not check_value(cvset(1), bag_of(INT))

    def test_custom_domain_inside_collections(self):
        from repro.types.ast import BaseType

        dom = BaseType("dom")
        members = {"dom": lambda v: isinstance(v, str) and v.startswith("d")}
        assert check_value(cvset(tup("d1", 2)), set_of(dom * INT), members)
        assert not check_value(cvset(tup("x", 2)), set_of(dom * INT), members)
        # Without the predicate the unknown base type matches no atom.
        assert not check_value("d1", dom)
