"""Tests for toset and the analogy relation (Definition 4.7)."""

import pytest

from repro.listset.analogy import (
    AnalogyError,
    analogous,
    deep_toset,
    toset,
)
from repro.listset.setfuncs import cardinality, set_union
from repro.types.ast import INT, FuncType, Product, list_of
from repro.types.values import Tup, cvlist, cvset, tup


class TestToset:
    def test_forgets_order_and_multiplicity(self):
        assert toset(cvlist(1, 2, 2, 1)) == cvset(1, 2)

    def test_empty(self):
        assert toset(cvlist()) == cvset()


class TestDeepToset:
    def test_flat(self):
        assert deep_toset(cvlist(1, 1, 2), list_of(INT)) == cvset(1, 2)

    def test_nested(self):
        v = cvlist(cvlist(1, 1), cvlist(2))
        t = list_of(list_of(INT))
        assert deep_toset(v, t) == cvset(cvset(1), cvset(2))

    def test_inner_collapse_merges_outer(self):
        # <⟨1,1⟩, ⟨1⟩> -> {{1}} : both inner lists become {1}.
        v = cvlist(cvlist(1, 1), cvlist(1))
        t = list_of(list_of(INT))
        assert deep_toset(v, t) == cvset(cvset(1))

    def test_through_products(self):
        v = tup(1, cvlist(2, 2))
        t = Product((INT, list_of(INT)))
        assert deep_toset(v, t) == tup(1, cvset(2))

    def test_shape_mismatch_raises(self):
        with pytest.raises(AnalogyError):
            deep_toset(cvset(1), list_of(INT))


class TestAnalogous:
    def test_base_values(self):
        assert analogous(1, 1, INT)
        assert not analogous(1, 2, INT)

    def test_complex_values(self):
        assert analogous(cvlist(1, 1, 2), cvset(1, 2), list_of(INT))
        assert not analogous(cvlist(1), cvset(1, 2), list_of(INT))

    def test_products_componentwise(self):
        t = Product((list_of(INT), INT))
        assert analogous(tup(cvlist(1, 1), 5), tup(cvset(1), 5), t)

    def test_append_union_analogy(self):
        t = FuncType(
            Product((list_of(INT), list_of(INT))), list_of(INT)
        )
        append = lambda p: p[0].append(p[1])
        samples = [
            Tup((cvlist(1, 2), cvlist(2, 3))),
            Tup((cvlist(), cvlist(0, 0))),
        ]
        assert analogous(append, set_union, t, samples)

    def test_count_card_not_analogous(self):
        t = FuncType(list_of(INT), INT)
        count = lambda l: len(l)
        samples = [cvlist(1, 1), cvlist(2)]
        assert not analogous(count, cardinality, t, samples)

    def test_function_analogy_needs_samples(self):
        t = FuncType(list_of(INT), INT)
        with pytest.raises(AnalogyError):
            analogous(lambda l: len(l), cardinality, t)

    def test_partial_function_fails_gracefully(self):
        t = FuncType(list_of(INT), INT)
        head = lambda l: l[0]
        # head crashes on the empty list sample; treated as non-analogous.
        assert not analogous(head, lambda s: 0, t, [cvlist()])

    def test_filter_analogous_to_set_filter(self):
        # Example 4.14: the list sigma and the set sigma are analogous.
        from repro.listset.setfuncs import set_filter
        from repro.types.values import CVList

        t = FuncType(list_of(INT), list_of(INT))
        keep = lambda x: x % 2 == 0
        list_filter = lambda l: CVList(x for x in l if keep(x))
        samples = [cvlist(), cvlist(1, 2, 2, 3), cvlist(4, 4)]
        assert analogous(list_filter, set_filter(keep), t, samples)

    def test_shape_mismatch_is_not_analogous(self):
        assert not analogous(cvset(1), cvset(1), list_of(INT))
        t = Product((INT, INT))
        assert not analogous(tup(1, 2), tup(1), t)

    def test_polymorphic_type_rejected(self):
        from repro.types.ast import forall, tvar

        with pytest.raises(AnalogyError):
            analogous(cvlist(1), cvset(1), forall("X", list_of(tvar("X"))))


class TestDeepTosetLeaves:
    def test_variables_and_base_types_pass_through(self):
        from repro.types.ast import tvar

        v = cvlist(1, 1)
        assert deep_toset(v, tvar("X")) is v
        assert deep_toset(3, INT) == 3

    def test_sets_are_translated_inside(self):
        from repro.types.ast import set_of

        v = cvset(cvlist(1, 1), cvlist(1))
        assert deep_toset(v, set_of(list_of(INT))) == cvset(cvset(1))

    def test_bag_types_rejected(self):
        from repro.types.ast import bag_of
        from repro.types.values import cvbag

        with pytest.raises(AnalogyError):
            deep_toset(cvbag(1), bag_of(INT))
