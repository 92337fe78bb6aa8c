"""Executor equivalence and caching tests.

The engine's contract: for every plan over every database,
``Database.run`` returns the identical ``CVSet`` answer, identical
total work, and identical per-node ledger as the reference interpreter
— cold, warm from the result cache, and after inserts that invalidate
the cached entry.
"""

import random

import pytest

from repro.engine.database import Database
from repro.engine.exec import (
    MAX_PIPELINE_DEPTH,
    PlanCache,
    execute_compiled,
)
from repro.engine.workload import deep_chain_plan
from repro.optimizer.plan import (
    Difference,
    Intersect,
    Join,
    Project,
    Scan,
    Select,
    Union,
    execute_reference,
)
from repro.types.values import CVSet, Tup, cvset, tup
from tests.conftest import NAMES, assert_equivalent


def _live(relations, arity=None) -> Database:
    """A ``Database`` holding ``relations``: declared with ``arity``
    and inserted (so inserts are validated and indexed), or, for
    ``arity=None``, assigned wholesale (any element shape)."""
    db = Database()
    for name, relation in relations.items():
        if arity is None:
            db[name] = relation
        else:
            db.create(name, arity)
            db.insert(name, relation)
    return db


class TestEquivalenceProperty:
    def test_random_plans_match_reference(self, plan_pair):
        """≥200 random plan/database pairs through ``Database.run`` in
        its default mode: cold, warm, and after an insert that
        invalidates the cached entry all agree with the reference,
        including work and ledger."""
        pairs_checked = 0
        nodes_seen = set()
        invalidated = 0
        for seed in range(220):
            plan, relations = plan_pair(20260806 + seed)
            stack = [plan]
            while stack:
                node = stack.pop()
                nodes_seen.add(type(node).__name__)
                stack.extend(node.children())
            db = _live(relations, arity=2)
            cold = db.run(plan)
            warm = db.run(plan)
            assert_equivalent(plan, db, cold, warm)
            rng = random.Random(seed)
            before = db.plan_cache.stats()
            db.insert(
                rng.choice(NAMES),
                [(rng.randrange(6), rng.randrange(6))
                 for _ in range(rng.randint(1, 3))],
            )
            after = db.plan_cache.stats()
            invalidated += after["invalidations"] - before["invalidations"]
            assert_equivalent(plan, db, db.run(plan))
            pairs_checked += 1
        assert pairs_checked >= 200
        # Inserts invalidate cached entries, and the generator
        # exercises the whole operator set.
        assert invalidated > 0
        assert nodes_seen >= {
            "Scan", "Project", "Select", "MapNode", "Union",
            "Difference", "Intersect", "Product", "Join",
        }

    def test_multi_pair_and_empty_join(self, random_db):
        db = random_db(3, arity=2, domain_size=4, max_rows=10)
        multi = Join(((0, 0), (1, 1)), Scan("r"), Scan("s"))
        empty = Join((), Scan("r"), Scan("s"))
        dup_pairs = Join(((0, 0), (0, 0)), Scan("r"), Scan("s"))
        for plan in (multi, empty, dup_pairs):
            assert_equivalent(
                plan, db, execute_compiled(plan, db), _live(db).run(plan)
            )

    def test_missing_relation_reads_empty(self):
        plan = Union(Scan("ghost"), Scan("r"))
        db = {"r": cvset(tup(1, 2))}
        assert_equivalent(
            plan, db, execute_compiled(plan, db), _live(db).run(plan)
        )


class TestCSE:
    def test_shared_subtree_executes_once(self):
        calls = 0

        def counting(t):
            nonlocal calls
            calls += 1
            return True

        db = {"r": CVSet(Tup((i, i + 1)) for i in range(10))}
        shared = Select("counting", counting, Scan("r"))
        plan = Intersect(
            Project((0,), shared), Project((0, 1), shared)
        )
        reference = execute_reference(plan, db)
        reference_calls, calls = calls, 0
        compiled = execute_compiled(plan, db)
        assert calls == 10
        assert reference_calls == 20
        assert compiled.value == reference.value
        assert compiled.work == reference.work
        assert compiled.per_node == reference.per_node


class TestPlanCache:
    def test_warm_hit_skips_execution(self):
        calls = 0

        def counting(t):
            nonlocal calls
            calls += 1
            return True

        db = _live({"r": CVSet(Tup((i,)) for i in range(5))})
        plan = Select("counting", counting, Scan("r"))
        first = db.run(plan)
        assert calls == 5
        second = db.run(plan)
        assert calls == 5  # served from cache
        assert second.value == first.value
        assert second.work == first.work  # as-if-executed work
        assert db.plan_cache.hits >= 1

    def test_fingerprint_mismatch_prevents_stale_hit(self):
        plan = Project((0,), Scan("r"))
        db = _live({"r": cvset(tup(1, 2))})
        first = db.run(plan)
        # Swap the relation behind the cache's back (no invalidation):
        # the fingerprint in the key alone must keep the stale entry
        # unreachable.
        db.relations["r"] = cvset(tup(3, 4))
        second = db.run(plan)
        assert first.value != second.value
        assert second.value == execute_reference(plan, db.relations).value

    def test_lru_eviction_bounds_entries(self):
        db = Database(cache_capacity=4)
        db["r"] = CVSet(Tup((i,)) for i in range(4))
        for c in range(10):
            db.run(Project((0,) * (c + 1), Scan("r")))
        assert len(db.plan_cache) <= 4

    def test_invalidate_by_relation(self):
        db = _live({"r": cvset(tup(1, 2)), "s": cvset(tup(3, 4))})
        db.run(Project((0,), Scan("r")))
        db.run(Project((0,), Scan("s")))
        assert len(db.plan_cache) == 2
        db.plan_cache.invalidate("r")
        assert len(db.plan_cache) == 1


class TestDatabaseExecution:
    def test_run_matches_reference_and_uses_cache(self, hr_db):
        db = hr_db()
        plan = Project((0,), Difference(Scan("employees"),
                                        Scan("students")))
        first = db.run(plan)
        reference = db.run_reference(plan)
        assert first.value == reference.value
        assert first.work == reference.work
        db.plan_cache.reset_stats()
        second = db.run(plan)
        assert db.plan_cache.hits == 1 and db.plan_cache.misses == 0
        assert second.value == first.value

    def test_insert_invalidates_cache(self):
        db = Database()
        db.create("log", 2)
        db.insert("log", [(1, "a")])
        plan = Project((0,), Scan("log"))
        assert db.run(plan).value == cvset(tup(1))
        db.insert("log", [(2, "b")])
        assert db.run(plan).value == cvset(tup(1), tup(2))

    def test_setitem_invalidates_cache(self):
        db = Database()
        db.create("log", 2)
        db.insert("log", [(1, "a")])
        plan = Project((0,), Scan("log"))
        db.run(plan)
        db["log"] = cvset(tup(9, "z"))
        assert db.run(plan).value == cvset(tup(9))

    def test_single_pair_join_borrows_database_index(self, hr_db):
        db = hr_db(seed=5, employees=30, students=20, overlap=5)
        plan = Join(((0, 0),), Scan("employees"), Scan("students"))
        result = db.run(plan)
        assert (0,) in db._eq_indexes.get("students", {})
        reference = db.run_reference(plan)
        assert result.value == reference.value
        assert result.work == reference.work
        assert result.per_node == reference.per_node

    def test_use_cache_false_bypasses_cache(self):
        db = Database()
        db.create("log", 1)
        db.insert("log", [(1,), (2,)])
        plan = Project((0,), Scan("log"))
        db.run(plan, use_cache=False)
        assert len(db.plan_cache) == 0

    @pytest.mark.parametrize("mode", ["stream", "batch", "auto", "sharded"])
    def test_only_two_modes(self, mode):
        db = _live({"r": cvset(tup(1, 2))})
        with pytest.raises(ValueError):
            db.run(Project((0,), Scan("r")), mode=mode)

    def test_reference_mode_uses_the_result_cache(self):
        db = _live({"r": cvset(tup(1, 2))})
        plan = Project((0,), Scan("r"))
        first = db.run(plan, mode="reference")
        second = db.run(plan)
        assert db.plan_cache.hits == 1
        assert db.plan_cache.compiled_stats()["puts"] == 0
        assert_equivalent(plan, db, first, second)


class TestSemanticCacheKeys:
    """A predicate/function name rebound to a different callable must
    never replay the old callable's answer (PR 2 regression)."""

    def test_aliased_predicate_shared_cache_both_correct(self):
        # The original poisoning repro: same name, two predicates, one
        # shared cache.  A structurally-keyed cache returned the first
        # answer for both.
        db = _live({"p": CVSet(Tup((i,)) for i in range(5))})
        plan1 = Select("p", lambda t: t[0] == 1, Scan("p"))
        plan2 = Select("p", lambda t: t[0] == 2, Scan("p"))
        first = db.run(plan1)
        second = db.run(plan2)
        assert first.value == db.run_reference(plan1).value
        assert second.value == db.run_reference(plan2).value
        assert first.value != second.value

    def test_aliased_predicates_within_one_plan(self):
        # The CSE memo has the same exposure: two same-named selections
        # inside ONE plan are structurally equal but semantically
        # different, and must both execute.
        db = {"p": CVSet(Tup((i,)) for i in range(6))}
        plan = Union(
            Select("thresh", lambda t: t[0] < 2, Scan("p")),
            Select("thresh", lambda t: t[0] >= 4, Scan("p")),
        )
        assert_equivalent(
            plan, db,
            execute_compiled(plan, db),
            execute_compiled(plan, db, compile_store=PlanCache()),
            _live(db).run(plan),
        )

    def test_recreated_closure_still_hits(self):
        # The parser builds its comparison lambdas afresh per parse; a
        # re-created closure with equal captures must keep the cache
        # warm, not key apart.
        def make(k):
            return lambda t: t[0] == k

        db = _live({"p": CVSet(Tup((i,)) for i in range(5))})
        first = db.run(Select("eq", make(2), Scan("p")))
        db.plan_cache.reset_stats()
        second = db.run(Select("eq", make(2), Scan("p")))
        assert db.plan_cache.hits >= 1
        assert second.value == first.value
        # ...while a *different* capture keys apart.
        third = db.run(Select("eq", make(3), Scan("p")))
        assert third.value == cvset(tup(3))

    def test_put_refreshes_existing_entry(self):
        from repro.engine.exec import CacheEntry

        cache = PlanCache(capacity=2)
        entries = {
            name: CacheEntry(cvset(tup(i)), i, ((name, i),), frozenset({name}))
            for i, name in enumerate(("k1", "k2", "k3"))
        }
        cache.put("k1", entries["k1"])
        cache.put("k2", entries["k2"])
        replacement = CacheEntry(cvset(tup(9)), 9, (("k1", 9),),
                                 frozenset({"k1"}))
        cache.put("k1", replacement)  # refresh: newest value, MRU position

        def is_refreshed(stored):
            # ``put`` stamps a content seal, so the stored entry is a
            # sealed copy of the replacement, not the same object.
            return stored is not None and (
                stored.value, stored.work, stored.entries
            ) == (replacement.value, replacement.work, replacement.entries)

        assert len(cache) == 2
        assert is_refreshed(cache.get("k1"))
        cache.put("k3", entries["k3"])  # evicts k2, not the refreshed k1
        assert is_refreshed(cache.get("k1"))
        assert cache.get("k2") is None

    def test_zero_capacity_disables_caching_without_churn(self):
        plan = Select("small", lambda t: t[0] < 2, Scan("p"))
        for capacity in (0, -1):
            db = Database(cache_capacity=capacity)
            db["p"] = CVSet(Tup((i,)) for i in range(4))
            result = db.run(plan)
            db.run(plan)
            assert result.value == db.run_reference(plan).value
            assert len(db.plan_cache) == 0  # put is a no-op: no churn
            assert db.plan_cache.hits == 0


class TestAtomRelations:
    """Relations of bare atoms flow through every operator, including
    set operations over two bare scans (PR 2 regression: a bulk path
    charged ``len(t)`` inline and raised ``TypeError`` on atoms)."""

    def test_bulk_set_ops_over_atom_relations(self):
        db = {"a": CVSet([1, 2, "x", "y"]), "b": CVSet([2, "y", 5])}
        for op in (Union, Difference, Intersect):
            plan = op(Scan("a"), Scan("b"))
            assert_equivalent(
                plan, db,
                execute_compiled(plan, db),
                _live(db).run(plan),
            )

    def test_nested_set_ops_over_atom_relations(self):
        db = {"a": CVSet([1, 2, 3]), "b": CVSet([2, 3, 4]),
              "c": CVSet([3, "z"])}
        plan = Difference(Union(Scan("a"), Scan("b")),
                          Intersect(Scan("b"), Scan("c")))
        assert_equivalent(plan, db, execute_compiled(plan, db))


class TestDeepPlans:
    """Plans thousands of operators deep execute, optimize and account
    without ``RecursionError`` (PR 2 regression)."""

    DEPTH = 5000

    def _chain(self, depth=DEPTH):
        return deep_chain_plan(random.Random(7), "r", depth)

    def test_deep_chain_executes_with_parity(self):
        relations = {"r": CVSet(Tup((i, i + 1)) for i in range(6))}
        plan = self._chain()
        db = _live(relations)
        assert_equivalent(
            plan, relations,
            execute_compiled(plan, relations),
            db.run(plan),
            db.run(plan),  # warm
        )

    def test_deep_chain_optimizes(self):
        from repro.optimizer.constraints import Catalog
        from repro.optimizer.rewriter import Rewriter

        plan = self._chain()
        optimized = Rewriter(Catalog()).optimize(plan)
        db = {"r": CVSet(Tup((i, i + 1)) for i in range(4))}
        assert (execute_compiled(optimized, db).value
                == execute_reference(plan, db).value)

    def test_deep_plan_hash_and_eq_are_iterative(self):
        plan = self._chain()
        other = self._chain()  # same seed: structurally identical
        assert hash(plan) == hash(other)
        assert plan == other

    def test_too_deep_plan_runs_on_reference_cached_and_invalidated(self):
        """Past ``MAX_PIPELINE_DEPTH`` the compiled mode runs the
        reference interpreter (nothing is compiled), the root result is
        still cached, and an insert invalidates it: the next run misses,
        recomputes on the reference and is stored again."""
        db = _live({"r": [(i, i + 1) for i in range(8)]}, arity=2)
        plan = self._chain(MAX_PIPELINE_DEPTH + 20)
        cold = db.run(plan)
        assert db.plan_cache.compiled_stats()["puts"] == 0
        assert len(db.plan_cache) == 1
        warm = db.run(plan)
        assert db.plan_cache.hits == 1
        assert_equivalent(plan, db, cold, warm)
        db.insert("r", [(20, 21), (21, 20)])
        assert db.plan_cache.invalidations == 1
        assert len(db.plan_cache) == 0
        recomputed = db.run(plan)
        assert db.plan_cache.hits == 1
        assert db.plan_cache.misses == 2
        assert db.plan_cache.puts == 2
        assert len(db.plan_cache) == 1
        assert db.plan_cache.compiled_stats()["puts"] == 0
        assert_equivalent(plan, db, recomputed)
