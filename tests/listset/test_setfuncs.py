"""Tests for the set-side function library."""

from repro.listset.setfuncs import (
    cardinality,
    poly,
    set_filter,
    set_ins,
    set_union,
)
from repro.mappings.function_maps import PolyValue
from repro.types.ast import INT
from repro.types.values import Tup, cvset


class TestSetFunctions:
    def test_union(self):
        assert set_union(Tup((cvset(1), cvset(2)))) == cvset(1, 2)

    def test_filter(self):
        f = set_filter(lambda x: x > 1)
        assert f(cvset(0, 1, 2, 3)) == cvset(2, 3)

    def test_ins(self):
        assert set_ins(7)(cvset(1)) == cvset(1, 7)

    def test_cardinality(self):
        assert cardinality(cvset()) == 0
        assert cardinality(cvset(1, 2)) == 2

    def test_filter_of_empty(self):
        assert set_filter(lambda x: True)(cvset()) == cvset()

    def test_ins_leaves_its_argument_alone(self):
        s = cvset(1)
        assert set_ins(1)(s) == s
        assert set_ins(2)(s) == cvset(1, 2)
        assert s == cvset(1)


class TestPolyWrapper:
    def test_uniform_components(self):
        pv = poly(set_union)
        assert isinstance(pv, PolyValue)
        assert pv[INT] is set_union
