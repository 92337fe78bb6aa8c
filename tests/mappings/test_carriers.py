"""Tests for bounded carrier enumeration."""

import pytest

from repro.mappings.carriers import DictFunction, carrier, enumerate_pairs
from repro.mappings.extensions import (
    BagRelExt,
    BagStrongExt,
    ListRel,
    ProductRel,
    SetRelExt,
)
from repro.mappings.function_maps import FuncRel
from repro.mappings.mapping import Budget, IdentityRel, Mapping, Unenumerable
from repro.types.ast import BOOL, INT
from repro.types.values import CVBag, CVList, CVSet, Tup


def h() -> Mapping:
    return Mapping(
        {(0, 10), (1, 11)},
        INT,
        INT,
        source_domain=(0, 1),
        target_domain=(10, 11),
    )


class TestDictFunction:
    def test_call_and_equality(self):
        f = DictFunction({1: True, 2: False})
        assert f(1) is True
        assert f == DictFunction({2: False, 1: True})
        assert hash(f) == hash(DictFunction({1: True, 2: False}))

    def test_graph_copy(self):
        f = DictFunction({1: 2})
        g = f.graph()
        g[1] = 99
        assert f(1) == 2


class TestCarrier:
    def test_mapping_sides(self):
        assert carrier(h(), "left") == [0, 1]
        assert carrier(h(), "right") == [10, 11]

    def test_identity_with_carrier(self):
        i = IdentityRel(BOOL, carrier=(True, False))
        assert set(carrier(i, "left")) == {True, False}

    def test_identity_without_carrier_unenumerable(self):
        with pytest.raises(Unenumerable):
            carrier(IdentityRel(INT), "left")

    def test_product_carrier(self):
        rel = ProductRel((h(), h()))
        values = carrier(rel, "left")
        assert Tup((0, 1)) in values
        assert len(values) == 4

    def test_list_carrier_bounded(self):
        rel = ListRel(h())
        values = carrier(rel, "left", Budget(max_list_len=2))
        assert CVList(()) in values
        assert CVList((0, 1)) in values
        assert all(len(v) <= 2 for v in values)

    def test_set_carrier_bounded(self):
        rel = SetRelExt(h())
        values = carrier(rel, "left", Budget(max_set_size=1))
        assert CVSet(()) in values
        assert all(len(v) <= 1 for v in values)

    def test_bag_carrier_bounded(self):
        # Every multiset of at most max_set_size carrier elements, once
        # each: 1 + 2 + 3 bags over a 2-element domain.
        rel = BagRelExt(h())
        values = carrier(rel, "left", Budget(max_set_size=2))
        assert len(values) == len(set(values)) == 6
        assert {CVBag(()), CVBag((0, 0)), CVBag((0, 1))} <= set(values)
        assert all(len(v) <= 2 for v in values)
        assert CVBag((10, 11)) in carrier(rel, "right", Budget(max_set_size=2))

    def test_bag_carrier_budget_guard(self):
        # Bags of at most 3 over 2 elements: 1 + 2 + 3 + 4 = 10.
        rel = BagRelExt(h())
        assert len(carrier(rel, "left", Budget(max_set_size=3, max_pairs=10))) == 10
        with pytest.raises(Unenumerable):
            carrier(rel, "left", Budget(max_set_size=3, max_pairs=9))

    def test_function_carrier(self):
        rel = FuncRel(h(), IdentityRel(BOOL, carrier=(True, False)))
        fns = carrier(rel, "left")
        # All predicates over a 2-element domain: 4 of them.
        assert len(fns) == 4

    def test_function_carrier_budget_guard(self):
        rel = FuncRel(
            ListRel(h()), IdentityRel(BOOL, carrier=(True, False))
        )
        with pytest.raises(Unenumerable):
            carrier(rel, "left", Budget(max_list_len=3, max_pairs=10))


class TestFunctionPairEnumeration:
    def test_pairs_are_related(self):
        rel = FuncRel(h(), IdentityRel(BOOL, carrier=(True, False)))
        pairs = list(enumerate_pairs(rel))
        assert pairs
        for f, g in pairs:
            assert rel.holds(f, g)

    def test_predicate_pairs_track_mapping(self):
        # For injective h, related predicates are exactly those agreeing
        # through h: 4 predicate pairs.
        rel = FuncRel(h(), IdentityRel(BOOL, carrier=(True, False)))
        pairs = list(enumerate_pairs(rel))
        assert len(pairs) == 4


class TestBagPairEnumeration:
    """Bag relations enumerate their pairs as function relations do:
    the bounded carriers, filtered by ``holds``."""

    def test_rel_pairs_relate_supports(self):
        # For injective h, rel relates two bags exactly when h maps the
        # one's support onto the other's; multiplicities are free.
        image = {0: 10, 1: 11}
        pairs = set(BagRelExt(h()).pairs(Budget(max_set_size=2)))
        assert len(pairs) == 10
        assert (CVBag((0, 0)), CVBag((10,))) in pairs
        for x, y in pairs:
            assert {image[v] for v in x.support()} == set(y.support())

    def test_strong_pairs_preserve_multiplicity(self):
        # strong also needs equal sizes: for injective h, each bag is
        # related to its image alone.
        image = {0: 10, 1: 11}
        b = Budget(max_set_size=2)
        rel = BagStrongExt(h())
        assert set(rel.pairs(b)) == {
            (x, CVBag(image[v] for v in x)) for x in carrier(rel, "left", b)
        }

    def test_pair_budget_guard(self):
        # 6 bags a side: 36 candidate pairs.
        rel = BagRelExt(h())
        assert len(list(rel.pairs(Budget(max_set_size=2, max_pairs=36)))) == 10
        with pytest.raises(Unenumerable):
            list(rel.pairs(Budget(max_set_size=2, max_pairs=35)))
