"""Plan-compiler parity and artifact-lifecycle tests.

``execute_compiled`` carries the engine's contract — identical
``CVSet`` answer, identical total work, identical per-node ledger as the
reference interpreter — while lowering the plan to one generated
function.  On top of parity, these tests pin the artifact lifecycle:
memoization under semantic keys, per-relation invalidation on mutation,
the deep-plan fallback to the reference, and ``Database.run``'s result
cache serving both executors.
"""

import random

from repro.engine.database import Database
from repro.engine.exec import (
    MAX_PIPELINE_DEPTH,
    PlanCache,
    compile_plan,
    execute_compiled,
    plan_depth,
)
from repro.engine.workload import (
    deep_chain_plan,
    random_atom_database,
    random_nested_database,
    random_plan,
)
from repro.obs.trace import Tracer
from repro.optimizer.plan import (
    Difference,
    Intersect,
    Join,
    MapNode,
    Product,
    Project,
    Scan,
    Select,
    Union,
)
from repro.types.values import CVSet, Tup
from tests.conftest import NAMES, assert_equivalent


class TestCompiledEquivalence:
    def test_random_plans_match_reference(self, plan_pair):
        """200 random plan/db pairs: compiled cold and artifact-warm
        agree with the reference, work and ledger included."""
        for seed in range(200):
            plan, db = plan_pair(20260808 + seed)
            store = PlanCache()
            assert_equivalent(
                plan, db,
                execute_compiled(plan, db),
                execute_compiled(plan, db, compile_store=store),
                execute_compiled(plan, db, compile_store=store),  # memo
            )

    def test_nested_value_databases(self):
        rng = random.Random(71)
        for _ in range(25):
            db = random_nested_database(rng, NAMES)
            plan = random_plan(rng, NAMES, depth=rng.randint(1, 3))
            assert_equivalent(plan, db, execute_compiled(plan, db))

    def test_atom_relations(self):
        """Bare atoms: weight 1 per element, unknown widths — the
        hoisted weight expressions must fall back correctly."""
        rng = random.Random(72)
        for _ in range(15):
            db = random_atom_database(rng, NAMES)
            op = rng.choice((Union, Difference, Intersect))
            plan = op(Scan(rng.choice(NAMES)), Scan(rng.choice(NAMES)))
            assert_equivalent(plan, db, execute_compiled(plan, db))

    def test_join_shapes(self):
        """Empty-``on``, single-pair and multi-pair joins plus the
        cartesian Product all ledger-match the reference."""
        db = {
            "a": CVSet(Tup((i, i % 3)) for i in range(8)),
            "b": CVSet(Tup((i % 3, i)) for i in range(6)),
        }
        for on in ((), ((0, 0),), ((0, 0), (1, 1))):
            plan = Join(on, Scan("a"), Scan("b"))
            assert_equivalent(plan, db, execute_compiled(plan, db))
        plan = Product(Scan("a"), Scan("b"))
        assert_equivalent(plan, db, execute_compiled(plan, db))

    def test_join_with_non_scan_right_child(self):
        """The pre-built index shortcut only fires for a Scan right
        child; a computed right side takes the runtime-build path."""
        db = {
            "a": CVSet(Tup((i, i % 3)) for i in range(8)),
            "b": CVSet(Tup((i % 3, i)) for i in range(6)),
        }
        plan = Join(((0, 0),), Scan("a"),
                    Union(Scan("b"), Scan("b")))
        assert_equivalent(plan, db, execute_compiled(plan, db))

    def test_scan_root_and_empty_projection(self):
        db = {"r": CVSet({Tup((1, 2)), Tup((3, 4))})}
        assert_equivalent(Scan("r"), db, execute_compiled(Scan("r"), db))
        plan = Project((), Scan("r"))
        assert_equivalent(plan, db, execute_compiled(plan, db))

    def test_cse_shared_subtree_ledger_splice(self):
        """A repeated subtree runs once; its ledger segment is spliced
        at every further occurrence, exactly as the reference logs."""
        db = {
            "r": CVSet(Tup((i, i)) for i in range(6)),
            "s": CVSet(Tup((i, 0)) for i in range(3)),
        }
        shared = Union(Scan("r"), Scan("s"))
        plan = Difference(
            MapNode("id", lambda t: t, shared, injective=True), shared
        )
        assert_equivalent(plan, db, execute_compiled(plan, db))

    def test_missing_relation_reads_as_empty_like_reference(self):
        db = {"r": CVSet({Tup((1,))})}
        plan = Union(Scan("r"), Scan("absent"))
        assert_equivalent(plan, db, execute_compiled(plan, db))


class TestDeepPlanFallback:
    def test_deep_chain_falls_back_to_reference(self):
        rng = random.Random(73)
        plan = deep_chain_plan(rng, "r", 5000)
        assert plan_depth(plan) > MAX_PIPELINE_DEPTH
        db = {"r": CVSet({Tup((1, 2)), Tup((3, 4))})}
        store = PlanCache()
        result = execute_compiled(plan, db, compile_store=store)
        assert_equivalent(plan, db, result)
        # The fallback must not have compiled anything.
        assert store.compiled_stats()["puts"] == 0

    def test_boundary_depth_still_compiles(self):
        plan = Scan("r")
        for _ in range(MAX_PIPELINE_DEPTH - 1):
            plan = Select("true", lambda t: True, plan)
        assert plan_depth(plan) == MAX_PIPELINE_DEPTH
        db = {"r": CVSet({Tup((1,)), Tup((2,))})}
        store = PlanCache()
        assert_equivalent(
            plan, db, execute_compiled(plan, db, compile_store=store)
        )
        assert store.compiled_stats()["puts"] == 1


class TestArtifactLifecycle:
    def test_artifact_memoized_under_semantic_key(self):
        db = {"r": CVSet(Tup((i, i)) for i in range(5))}
        plan = Project((0,), Scan("r"))
        store = PlanCache()
        execute_compiled(plan, db, compile_store=store)
        stats = store.compiled_stats()
        assert (stats["misses"], stats["puts"], stats["hits"]) == (1, 1, 0)
        execute_compiled(plan, db, compile_store=store)
        stats = store.compiled_stats()
        assert (stats["misses"], stats["puts"], stats["hits"]) == (1, 1, 1)

    def test_structurally_equal_plans_share_one_artifact(self):
        db = {"r": CVSet(Tup((i, i)) for i in range(5))}
        store = PlanCache()
        execute_compiled(Project((0,), Scan("r")), db, compile_store=store)
        execute_compiled(Project((0,), Scan("r")), db, compile_store=store)
        assert store.compiled_stats()["puts"] == 1
        assert store.compiled_stats()["hits"] == 1

    def test_zero_capacity_store_never_memoizes(self):
        db = {"r": CVSet(Tup((i, i)) for i in range(5))}
        plan = Project((0,), Scan("r"))
        store = PlanCache(0)
        for _ in range(3):
            assert_equivalent(
                plan, db, execute_compiled(plan, db, compile_store=store)
            )
        stats = store.compiled_stats()
        assert stats["puts"] == 0 and stats["hits"] == 0
        assert stats["entries"] == 0

    def test_invalidate_drops_only_artifacts_reading_the_relation(self):
        db = {
            "r": CVSet({Tup((1, 2))}),
            "s": CVSet({Tup((3, 4))}),
        }
        store = PlanCache()
        execute_compiled(Project((0,), Scan("r")), db, compile_store=store)
        execute_compiled(Project((0,), Scan("s")), db, compile_store=store)
        assert store.compiled_stats()["entries"] == 2
        store.invalidate("r")
        assert store.compiled_stats()["entries"] == 1
        execute_compiled(Project((0,), Scan("s")), db, compile_store=store)
        assert store.compiled_stats()["hits"] == 1

    def test_database_insert_invalidates_artifact(self):
        """A stale artifact would replay the old scan binding; the
        mutation path must drop it so results track the live data."""
        db = Database()
        db.create("r", 2)
        db.insert("r", [(i, i) for i in range(4)])
        plan = Project((0,), Scan("r"))
        first = db.run(plan, use_cache=False, mode="compiled")
        assert_equivalent(plan, db.relations, first)
        db.insert("r", [(9, 9), (10, 10)])
        second = db.run(plan, use_cache=False, mode="compiled")
        assert_equivalent(plan, db.relations, second)
        assert second.value != first.value

    def test_compile_plan_is_specialized_to_current_contents(self):
        """A raw artifact replays the data it was compiled against —
        the documented reason artifacts live under semantic keys."""
        db = {"r": CVSet({Tup((1, 2))})}
        compiled = compile_plan(Project((0,), Scan("r")), db)
        db["r"] = CVSet({Tup((7, 8))})
        values, _ = compiled.run()
        assert CVSet(values) == CVSet({Tup((1,))})


class TestCacheInterop:
    """``Database.run`` keeps one result cache around both executors,
    so an entry either one stores is a hit for the other."""

    def _db(self):
        db = Database()
        db.create("r", 2)
        db.insert("r", [(i, i) for i in range(5)])
        return db

    def test_compiled_writes_reference_hits(self):
        db = self._db()
        plan = Project((0,), Scan("r"))
        db.run(plan, mode="compiled")
        db.plan_cache.reset_stats()
        result = db.run(plan, mode="reference")
        assert db.plan_cache.hits == 1
        assert_equivalent(plan, db, result)

    def test_reference_writes_compiled_hits(self):
        db = self._db()
        plan = Project((0,), Scan("r"))
        db.run(plan, mode="reference")
        db.plan_cache.reset_stats()
        result = db.run(plan, mode="compiled")
        assert db.plan_cache.hits == 1
        assert db.plan_cache.compiled_stats()["puts"] == 0
        assert_equivalent(plan, db, result)

    def test_predicate_aliasing_keeps_keys_distinct(self):
        """Two same-named predicates with different behavior must not
        collide in either the result cache or the artifact store."""
        db = Database()
        db["r"] = CVSet(Tup((i,)) for i in range(6))
        low = Select("cut", lambda t: t.items[0] < 2, Scan("r"))
        high = Select("cut", lambda t: t.items[0] >= 2, Scan("r"))
        a = db.run(low)
        b = db.run(high)
        assert_equivalent(low, db, a)
        assert_equivalent(high, db, b)
        assert a.value != b.value
        assert db.plan_cache.compiled_stats()["puts"] == 2


class TestDatabaseCompiledRun:
    def test_run_mode_compiled_with_prebuilt_join_index(self):
        db = Database()
        db.create("e", 3)
        db.insert("e", [(i, i % 5, i * 2) for i in range(40)])
        db.create("k", 2)
        db.insert("k", [(i % 5, str(i)) for i in range(10)])
        plan = Join(((1, 0),), Scan("e"), Scan("k"))
        result = db.run(plan, use_cache=False, mode="compiled")
        assert_equivalent(plan, db.relations, result)

    def test_hr_workload_matches_reference(self, hr_db):
        db = hr_db()
        plan = Project((0,), Difference(Scan("employees"),
                                        Scan("students")))
        result = db.run(plan, use_cache=False, mode="compiled")
        assert_equivalent(plan, db.relations, result)

    def test_use_cache_false_still_memoizes_the_program(self):
        """``use_cache=False`` disables the *result* cache only; the
        artifact memo is a program cache and stays warm."""
        db = Database()
        db.create("r", 2)
        db.insert("r", [(i, i) for i in range(4)])
        plan = Project((0,), Scan("r"))
        db.run(plan, use_cache=False, mode="compiled")
        db.run(plan, use_cache=False, mode="compiled")
        stats = db.plan_cache.compiled_stats()
        assert stats["puts"] == 1 and stats["hits"] == 1
        assert db.plan_cache.stats()["puts"] == 0

    def test_stats_survive_mutation(self):
        """Insert + wholesale replacement keep the cached weights and
        widths the compiler hoists honest."""
        db = Database()
        db.create("r", 2)
        db.insert("r", [(i, i) for i in range(6)])
        plan = Union(Scan("r"), Scan("r"))
        assert_equivalent(plan, db, db.run(plan, use_cache=False))
        db.insert("r", [(9, 9), (10, 10)])
        assert_equivalent(plan, db, db.run(plan, use_cache=False))
        db["r"] = CVSet({Tup((1,)), Tup((1, 2, 3)), "atom"})
        assert db.relation_width("r") is None
        assert_equivalent(plan, db, db.run(plan, use_cache=False))


class TestCompiledTracing:
    def test_span_tree_work_matches_result(self, hr_db):
        db = hr_db(seed=12, employees=30, students=20, overlap=8)
        plan = Project((0,), Difference(Scan("employees"),
                                        Scan("students")))
        tracer = Tracer()
        result = execute_compiled(plan, db.relations, tracer=tracer)
        assert tracer.last is not None
        assert tracer.last.total_work() == result.work
        assert tracer.last.rows == len(result.value)

    def test_cse_span_tree_work_matches_result(self):
        db = {
            "r": CVSet(Tup((i, i)) for i in range(6)),
            "s": CVSet(Tup((i, 0)) for i in range(3)),
        }
        shared = Union(Scan("r"), Scan("s"))
        plan = Difference(
            MapNode("id", lambda t: t, shared, injective=True), shared
        )
        tracer = Tracer()
        result = execute_compiled(plan, db, tracer=tracer)
        assert tracer.last.total_work() == result.work

    def test_result_cache_hit_is_a_single_span(self):
        db = Database()
        db["r"] = CVSet(Tup((i, i)) for i in range(5))
        plan = Project((0,), Scan("r"))
        db.run(plan)
        tracer = Tracer()
        result = db.run(plan, tracer=tracer)
        assert_equivalent(plan, db, result)
        assert tracer.last.cache == "hit"
        assert tracer.last.children == []
