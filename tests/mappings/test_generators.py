"""Tests for random mapping / value generators."""

import random

import pytest

from repro.mappings.generators import (
    MAPPING_CLASSES,
    all_mappings_between,
    random_bijective_mapping,
    random_domain,
    random_functional_mapping,
    random_injective_mapping,
    random_mapping,
    random_mapping_in_class,
    random_relation_value,
    random_total_surjective_mapping,
    random_value,
)
from repro.types.ast import BOOL, INT, STR, Product, TypeError_, bag_of, list_of, set_of
from repro.types.typecheck import check_value
from repro.types.values import Tup


class TestDomains:
    def test_int_domain(self):
        assert random_domain(random.Random(0), 3, INT) == [0, 1, 2]
        assert random_domain(random.Random(0), 3, INT, offset=10) == [10, 11, 12]

    def test_str_domain_distinct(self):
        d = random_domain(random.Random(0), 30, STR)
        assert len(set(d)) == 30

    def test_bool_domain(self):
        assert random_domain(random.Random(0), 2, BOOL) == [True, False]

    def test_abstract_domain(self):
        from repro.types.ast import BaseType

        d = random_domain(random.Random(0), 2, BaseType("dom"))
        assert d == ["dom_0", "dom_1"]


class TestMappingClasses:
    def test_every_class_generates_members(self):
        rng = random.Random(1)
        left = list(range(4))
        right = list(range(100, 104))
        for cls in MAPPING_CLASSES:
            h = random_mapping_in_class(rng, cls, left, right, INT)
            assert len(h) > 0

    def test_functional_class(self):
        rng = random.Random(2)
        for _ in range(20):
            h = random_functional_mapping(rng, range(5), range(100, 105), INT)
            assert h.is_functional()
            assert h.is_total()

    def test_injective_class(self):
        rng = random.Random(3)
        for _ in range(20):
            h = random_injective_mapping(rng, range(4), range(100, 106), INT)
            assert h.is_injective()

    def test_injective_needs_room(self):
        with pytest.raises(ValueError):
            random_injective_mapping(random.Random(0), range(5), range(2), INT)

    def test_bijective_class(self):
        rng = random.Random(4)
        for _ in range(20):
            h = random_bijective_mapping(rng, range(4), range(100, 104), INT)
            assert h.is_bijective()

    def test_bijective_needs_equal_sizes(self):
        with pytest.raises(ValueError):
            random_bijective_mapping(random.Random(0), range(3), range(4), INT)

    def test_total_surjective_class(self):
        rng = random.Random(5)
        for _ in range(20):
            h = random_total_surjective_mapping(
                rng, range(4), range(100, 104), INT
            )
            assert h.is_total()
            assert h.is_surjective()

    def test_surjective_functional_class(self):
        rng = random.Random(6)
        for _ in range(20):
            h = random_mapping_in_class(
                rng, "surjective_functional", range(5), range(100, 103), INT
            )
            assert h.is_functional()
            assert h.is_total()
            assert h.is_surjective()

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError):
            random_mapping_in_class(random.Random(0), "nope", [1], [2], INT)

    def test_determinism(self):
        a = random_mapping(random.Random(7), range(4), range(4), INT)
        b = random_mapping(random.Random(7), range(4), range(4), INT)
        assert a == b


class TestExhaustiveEnumeration:
    def test_counts_all_nonempty_mappings(self):
        ms = all_mappings_between([1, 2], [3, 4], INT)
        assert len(ms) == 2 ** 4 - 1

    def test_size_guard(self):
        with pytest.raises(ValueError):
            all_mappings_between(range(5), range(5), INT)


class TestRandomValues:
    def test_values_typecheck(self):
        rng = random.Random(0)
        domains = {"int": [0, 1, 2], "str": ["a", "b"]}
        for t in [
            set_of(INT),
            set_of(Product((INT, STR))),
            list_of(set_of(INT)),
            bag_of(INT),
            set_of(set_of(INT)),
        ]:
            for _ in range(10):
                v = random_value(rng, t, domains)
                assert check_value(v, t), (v, t)

    def test_bool_defaults(self):
        v = random_value(random.Random(0), BOOL, {})
        assert isinstance(v, bool)

    def test_missing_domain_rejected(self):
        with pytest.raises(TypeError_):
            random_value(random.Random(0), INT, {})

    def test_relation_value(self):
        r = random_relation_value(random.Random(0), 2, [0, 1, 2], 4)
        assert len(r) == 4
        assert all(isinstance(t, Tup) and len(t) == 2 for t in r)

    def test_relation_value_caps_at_universe(self):
        r = random_relation_value(random.Random(0), 1, [0, 1], 10)
        assert len(r) == 2

    def test_empty_mapping_counted_when_asked(self):
        ms = all_mappings_between([1, 2], [3, 4], INT, nonempty=False)
        assert len(ms) == 2 ** 4
        assert sum(1 for m in ms if len(m) == 0) == 1
        assert all(m.source_domain == frozenset({1, 2}) for m in ms)

    def test_random_value_respects_the_collection_bound(self):
        rng = random.Random(3)
        domains = {"int": [0, 1, 2, 3, 4, 5]}
        for t in (list_of(INT), bag_of(INT)):
            for _ in range(20):
                assert len(list(random_value(rng, t, domains, max_collection=2))) <= 2

    def test_random_value_rejects_type_variables(self):
        from repro.types.ast import tvar

        with pytest.raises(TypeError_):
            random_value(random.Random(0), tvar("X"), {"int": [0]})
