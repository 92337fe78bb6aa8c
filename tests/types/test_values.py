"""Tests for complex value wrappers."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.types.values import (
    CVBag,
    CVList,
    CVSet,
    Tup,
    atoms_of,
    cvbag,
    cvlist,
    cvset,
    is_atom,
    map_atoms,
    tup,
    value_depth,
)


class TestTup:
    def test_iteration_and_indexing(self):
        t = tup(1, "a", True)
        assert len(t) == 3
        assert t[1] == "a"
        assert list(t) == [1, "a", True]

    def test_equality_and_hash(self):
        assert tup(1, 2) == tup(1, 2)
        assert hash(tup(1, 2)) == hash(tup(1, 2))
        assert tup(1, 2) != tup(2, 1)

    def test_project(self):
        assert tup(1, 2, 3).project((2, 0)) == tup(3, 1)

    def test_replace(self):
        assert tup(1, 2).replace(0, 9) == tup(9, 2)

    def test_nested_tuples(self):
        t = tup(tup(1, 2), tup(3, 4))
        assert t[0] == tup(1, 2)


class TestCVSet:
    def test_deduplication(self):
        assert len(cvset(1, 1, 2)) == 2

    def test_sets_of_sets(self):
        outer = cvset(cvset(1), cvset(1, 2))
        assert cvset(1) in outer
        assert cvset(2) not in outer

    def test_algebra(self):
        a, b = cvset(1, 2), cvset(2, 3)
        assert a.union(b) == cvset(1, 2, 3)
        assert a.intersection(b) == cvset(2)
        assert a.difference(b) == cvset(1)
        assert (a | b) == cvset(1, 2, 3)
        assert (a & b) == cvset(2)
        assert (a - b) == cvset(1)

    def test_subset(self):
        assert cvset(1).issubset(cvset(1, 2))
        assert not cvset(3).issubset(cvset(1, 2))

    def test_add_is_persistent(self):
        a = cvset(1)
        b = a.add(2)
        assert a == cvset(1)
        assert b == cvset(1, 2)

    def test_empty_set_repr(self):
        assert repr(cvset()) == "{}"


class TestCVBag:
    def test_multiplicity(self):
        b = cvbag(1, 1, 2)
        assert b.count(1) == 2
        assert b.count(2) == 1
        assert b.count(3) == 0
        assert len(b) == 3

    def test_equality_respects_counts(self):
        assert cvbag(1, 1) != cvbag(1)
        assert cvbag(1, 2) == cvbag(2, 1)

    def test_support(self):
        assert cvbag(1, 1, 2).support() == frozenset({1, 2})

    def test_additive_union(self):
        assert cvbag(1).union(cvbag(1, 2)).count(1) == 2

    def test_iteration_yields_duplicates(self):
        assert sorted(cvbag(1, 1, 2)) == [1, 1, 2]


class TestCVList:
    def test_order_matters(self):
        assert cvlist(1, 2) != cvlist(2, 1)

    def test_append(self):
        assert cvlist(1).append(cvlist(2, 3)) == cvlist(1, 2, 3)

    def test_cons(self):
        assert cvlist(2, 3).cons(1) == cvlist(1, 2, 3)

    def test_indexing_and_slicing(self):
        l = cvlist(1, 2, 3)
        assert l[0] == 1
        assert l[1:] == cvlist(2, 3)

    def test_duplicates_preserved(self):
        assert len(cvlist(1, 1)) == 2

    def test_hashable_inside_sets(self):
        s = cvset(cvlist(1), cvlist(1, 1))
        assert len(s) == 2


class TestPredicates:
    def test_is_atom(self):
        assert is_atom(3)
        assert is_atom("x")
        assert is_atom(True)
        assert is_atom(2.5)
        assert not is_atom(tup(1))
        assert not is_atom(cvset())


class TestStructuralHelpers:
    def test_atoms_of(self):
        v = cvset(tup(1, cvlist("a", "b")), tup(2, cvlist()))
        assert atoms_of(v) == frozenset({1, 2, "a", "b"})

    def test_atoms_of_bag(self):
        assert atoms_of(cvbag(1, 1, 2)) == frozenset({1, 2})

    def test_value_depth(self):
        assert value_depth(5) == 0
        assert value_depth(tup(1, 2)) == 0
        assert value_depth(cvset(1)) == 1
        assert value_depth(cvset(cvset(1))) == 2
        assert value_depth(tup(cvset(cvset(1)), cvset(2))) == 2
        assert value_depth(cvset()) == 1

    def test_map_atoms_preserves_structure(self):
        v = cvset(tup(1, cvlist(2, 3)))
        out = map_atoms(v, lambda x: x + 10)
        assert out == cvset(tup(11, cvlist(12, 13)))

    def test_map_atoms_on_bag(self):
        assert map_atoms(cvbag(1, 1), lambda x: x + 1).count(2) == 2

    def test_map_atoms_collapse_in_sets(self):
        # Non-injective atom maps can shrink sets.
        assert map_atoms(cvset(1, 2), lambda _x: 0) == cvset(0)


class TestBagFastPaths:
    """CVBag keeps a dict beside the frozenset: count/contains are O(1)."""

    def test_count_and_contains_agree_with_iteration(self):
        import random
        rng = random.Random(0)
        items = [rng.randrange(50) for _ in range(300)]
        bag = cvbag(*items)
        for v in range(50):
            assert bag.count(v) == items.count(v)
            assert (v in bag) == (items.count(v) > 0)
        assert len(bag) == len(items)

    def test_bool_int_identification_preserved(self):
        # Counter merges True and 1 (hash/eq identified); the dict-backed
        # fast path must agree with the old linear scan's semantics.
        bag = cvbag(True, 1, 1)
        assert bag.count(1) == 3
        assert bag.count(True) == 3

    def test_hash_equality_unchanged(self):
        assert cvbag(1, 2, 2) == cvbag(2, 1, 2)
        assert hash(cvbag(1, 2, 2)) == hash(cvbag(2, 1, 2))
        assert cvbag(1, 2) != cvbag(1, 2, 2)


class TestAtomsMemo:
    def test_atoms_of_memoized_result_is_stable(self):
        v = cvset(tup(1, cvlist(2, 3)), cvbag("a", "a"))
        first = atoms_of(v)
        second = atoms_of(v)
        assert first == second == frozenset({1, 2, 3, "a"})
        assert first is second  # served from the memo


class TestTupContract:
    """``Tup`` hashes as ``hash((items,))``, hashes its components once,
    and keeps ``items`` read-only."""

    @pytest.mark.parametrize("items", [
        (),
        (1, 2),
        (True, 2.5, -3),
        ("a", "bc"),
        (Tup((1, "x")), Tup(())),
        (CVSet([1, "a"]), CVList(["b", 2]), CVBag(["c", "c"])),
        (Tup((CVSet([Tup(("d", 1))]),)), "e"),
    ], ids=repr)
    def test_hash_formula(self, items):
        # Set layouts, so iteration orders and every search result,
        # depend on this formula.
        assert hash(Tup(items)) == hash((tuple(items),))

    def test_components_are_hashed_once(self):
        calls = []

        class Counted:
            def __hash__(self):
                calls.append(1)
                return 7

        t = Tup((Counted(), 1))
        for _ in range(5):
            hash(t)
        assert len(calls) == 1

    def test_items_is_read_only(self):
        t = tup(1, 2)
        with pytest.raises(AttributeError):
            t.items = (3,)
        with pytest.raises(AttributeError):
            del t.items
        assert t.items == (1, 2)
        assert hash(t) == hash(((1, 2),))

    def test_not_equal_to_a_plain_tuple(self):
        assert Tup((1, 2)) != (1, 2)
        assert (1, 2) != Tup((1, 2))
        assert Tup((1, 2)) not in {(1, 2)}

    def test_built_from_any_iterable(self):
        built = [
            Tup([1, "a", cvset(2)]),
            Tup((1, "a", cvset(2))),
            Tup(x for x in (1, "a", cvset(2))),
        ]
        assert built[0] == built[1] == built[2]
        assert len({hash(t) for t in built}) == 1


#: Built the same way in the dumping and the loading process.
_PICKLED_VALUES = (
    'Tup((1, "a")), CVSet([1, "a"]), CVList([1, "a"]), '
    'CVBag([1, 1, "a"]), '
    'Tup((CVSet(["b", Tup(("c", CVList(["d"])))]), CVBag(["e", "e"])))'
)

_DUMP = f"""
import pickle, sys
from repro.types.values import CVBag, CVList, CVSet, Tup
with open(sys.argv[1], "wb") as handle:
    pickle.dump([{_PICKLED_VALUES}], handle)
print(hash("a"))
"""

_LOAD = f"""
import pickle, sys
from repro.types.values import CVBag, CVList, CVSet, Tup
with open(sys.argv[1], "rb") as handle:
    loaded = pickle.load(handle)
fresh = [{_PICKLED_VALUES}]
print(hash("a"))
for old, new in zip(loaded, fresh):
    print(old == new, hash(old) == hash(new), old in set(fresh),
          new in {{old}})
"""


class TestPickle:
    def test_loaded_under_another_hash_seed_is_found_in_sets(self, tmp_path):
        # A pickled stored hash would be the dumping process's: equal
        # to a fresh value, yet not found in a set holding it.
        src = str(Path(repro.__file__).resolve().parents[1])
        path = str(tmp_path / "values.pickle")

        def run(script, seed):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            done = subprocess.run(
                [sys.executable, "-c", script, path],
                env=env, capture_output=True, text=True, check=True,
            )
            return done.stdout.split("\n")

        dumped = run(_DUMP, "0")
        loaded = run(_LOAD, "1")
        assert dumped[0] != loaded[0]  # the seeds hash strings apart
        rows = [line for line in loaded[1:] if line]
        assert rows == ["True True True True"] * 5
