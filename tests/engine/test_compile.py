"""Plan-compiler parity and program-memo tests.

``execute_compiled`` carries the engine's contract — identical
``CVSet`` answer, identical total work, identical per-node ledger as the
reference interpreter — while lowering the plan to one generated
function.  On top of parity, these tests pin how programs are reused:
every run lowers the plan against the current data, ``compile()`` runs
once per distinct generated source (the ``_code_for`` memo), the
deep-plan fallback compiles nothing, and ``Database.run``'s result
cache serves both executors.
"""

import random

from repro.engine.database import Database
from repro.engine.exec import (
    MAX_PIPELINE_DEPTH,
    compile_plan,
    execute_compiled,
    plan_depth,
)
from repro.engine.exec.compile import _code_for
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
        """200 random plan/db pairs: a first run and two reruns that
        reuse its code object agree with the reference, work and ledger
        included."""
        for seed in range(200):
            plan, db = plan_pair(20260808 + seed)
            assert_equivalent(
                plan, db,
                execute_compiled(plan, db),
                execute_compiled(plan, db),
                execute_compiled(plan, db),
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
        """A computed right child: the join builds its index from it
        at run time (only a Scan can borrow a database index)."""
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
    def test_deep_chain_falls_back_to_reference(self, compile_calls):
        rng = random.Random(73)
        plan = deep_chain_plan(rng, "r", 5000)
        assert plan_depth(plan) > MAX_PIPELINE_DEPTH
        db = {"r": CVSet({Tup((1, 2)), Tup((3, 4))})}
        result = execute_compiled(plan, db)
        assert_equivalent(plan, db, result)
        # The fallback must not have compiled anything.
        assert compile_calls == []

    def test_boundary_depth_still_compiles(self, compile_calls):
        plan = Scan("r")
        for _ in range(MAX_PIPELINE_DEPTH - 1):
            plan = Select("true", lambda t: True, plan)
        assert plan_depth(plan) == MAX_PIPELINE_DEPTH
        db = {"r": CVSet({Tup((1,)), Tup((2,))})}
        assert_equivalent(plan, db, execute_compiled(plan, db))
        assert compile_calls == [plan]


class TestArtifactLifecycle:
    def test_database_insert_invalidates_artifact(self):
        """A compiled plan replays the scan binding it was lowered
        against; every run lowers the plan again, so results track the
        live data."""
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
        """A ``CompiledPlan`` replays the data it was lowered against —
        the reason ``execute_compiled`` lowers the plan on every run."""
        db = {"r": CVSet({Tup((1, 2))})}
        compiled = compile_plan(Project((0,), Scan("r")), db)
        db["r"] = CVSet({Tup((7, 8))})
        values, _ = compiled.run()
        assert CVSet(values) == CVSet({Tup((1,))})


def _threshold(k):
    return lambda t: t.items[0] < k


class TestCodeMemo:
    """``_code_for`` is the engine's only program memo: a generated
    source depends on the plan alone, so ``compile()`` runs once per
    distinct plan however often the plan reruns and however the data
    changes in between.  The memo is process-wide, so each test clears
    it first."""

    def _db(self):
        db = Database()
        db.create("r", 2)
        db.create("s", 2)
        db.insert("r", [(i, i % 3) for i in range(6)])
        db.insert("s", [(i % 3, i) for i in range(5)])
        return db

    def _plans(self):
        shared = Union(Scan("r"), Scan("s"))
        return [
            Project((1,), Scan("r")),
            Select("even", lambda t: t.items[0] % 2 == 0, Scan("s")),
            MapNode("swap", lambda t: Tup((t.items[1], t.items[0])),
                    Scan("r")),
            Union(Scan("r"), Scan("s")),
            Difference(Scan("r"), Scan("s")),
            Intersect(Scan("s"), Scan("r")),
            Product(Scan("r"), Scan("s")),
            Join((), Scan("r"), Scan("s")),
            Join(((1, 0),), Scan("r"), Scan("s")),
            Join(((0, 1), (1, 0)), Scan("r"), Scan("s")),
            Join(((1, 0),), Scan("r"), Project((0, 1), Scan("s"))),
            Difference(
                MapNode("id", lambda t: t, shared, injective=True), shared
            ),
        ]

    def test_compile_runs_once_per_distinct_plan(self):
        """Gate: N plans, each run in 3 rounds with inserts into both
        relations it reads after every run, make exactly N ``compile()``
        calls.  A source that carried data (an inlined weight, a hoisted
        row list) would compile again after each insert."""
        db = self._db()
        plans = self._plans()
        _code_for.cache_clear()
        fresh = 100
        for _ in range(3):
            for plan in plans:
                assert_equivalent(plan, db, db.run(plan))
                db.insert("r", [(fresh, fresh % 3)])
                db.insert("s", [(fresh % 3, fresh)])
                fresh += 1
        assert _code_for.cache_info().misses == len(plans)

    def test_insert_then_rerun_reuses_the_code_object(self):
        db = self._db()
        plan = Project((0,), Join(((1, 0),), Scan("r"), Scan("s")))
        _code_for.cache_clear()
        db.run(plan)
        db.insert("r", [(50, 2)])
        result = db.run(plan)
        info = _code_for.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert Tup((50,)) in result.value
        assert_equivalent(plan, db, result)

    def test_aliased_predicates_share_one_code_object(self):
        """One predicate name over two closures: one source, one
        ``compile()``, and each closure's own answer."""
        db = self._db()
        low = Select("cut", _threshold(2), Scan("r"))
        high = Select("cut", _threshold(4), Scan("r"))
        _code_for.cache_clear()
        a = db.run(low)
        b = db.run(high)
        assert _code_for.cache_info().misses == 1
        assert_equivalent(low, db, a)
        assert_equivalent(high, db, b)
        assert a.value != b.value


def _count_tup_builds(monkeypatch):
    """Patch ``Tup.__init__`` to count calls; returns the one-element
    count list.  A counting subclass would not do: ``Tup.__eq__``
    requires ``other.__class__ is Tup``."""
    builds = [0]
    init = Tup.__init__

    def counting(self, items):
        builds[0] += 1
        init(self, items)

    monkeypatch.setattr(Tup, "__init__", counting)
    return builds


class TestTupBudget:
    """Gate: compiled plans compute on plain tuples.  A ``Tup`` is built
    only for a row handed to a predicate or a map function, for a plain
    row that meets ``Tup``s in a set operation, and for each answer
    row.  Counts are deterministic: they must repeat exactly under any
    ``PYTHONHASHSEED``."""

    def test_tup_builds_on_a_seeded_plan_set(self, hr_db, monkeypatch):
        """40 seeded random plans over the HR database build exactly
        this many ``Tup``s.  One ``Tup`` per output row of every
        operator would make 23,982."""
        db = hr_db()
        rng = random.Random("tup-budget")
        plans = [
            random_plan(rng, sorted(db.relations), base_arity=3, depth=3)
            for _ in range(40)
        ]
        builds = _count_tup_builds(monkeypatch)
        results = [execute_compiled(plan, db.relations) for plan in plans]
        count = builds[0]
        monkeypatch.undo()
        for plan, result in zip(plans, results):
            assert_equivalent(plan, db, result)
        assert count == 3_940

    def test_one_tup_per_answer_row(self, hr_db, monkeypatch):
        """Projections, joins, products and set operations over
        projections build no ``Tup`` until the answer: one per answer
        row, however many rows the operators below produced."""
        db = hr_db()
        emp, stu, con = (
            Scan("employees"), Scan("students"), Scan("contractors")
        )
        plans = [
            Project((0,), emp),
            Project((2, 0), Join(((0, 0),), emp, stu)),
            Union(Project((0, 1), emp), Project((0, 1), stu)),
            Difference(Project((2,), emp), Project((2,), con)),
            Intersect(Project((0,), emp), Project((0,), con)),
            Join(((0, 0), (1, 1)), emp, Project((0, 1), stu)),
            Join(((1, 0),), Project((0, 2), con), Project((2, 1), emp)),
            Join((), Project((2,), emp), Project((2,), stu)),
            Product(Project((2,), con), Project((), stu)),
            Project((1,), Difference(
                Project((2, 0), emp), Project((2, 0), stu)
            )),
        ]
        for plan in plans:
            builds = _count_tup_builds(monkeypatch)
            result = execute_compiled(plan, db.relations)
            count = builds[0]
            monkeypatch.undo()
            assert_equivalent(plan, db, result)
            assert len(result.value) > 0, plan
            assert count == len(result.value), plan


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

    def test_reference_writes_compiled_hits(self, compile_calls):
        db = self._db()
        plan = Project((0,), Scan("r"))
        db.run(plan, mode="reference")
        db.plan_cache.reset_stats()
        result = db.run(plan, mode="compiled")
        assert db.plan_cache.hits == 1
        assert compile_calls == []
        assert_equivalent(plan, db, result)

    def test_predicate_aliasing_keeps_keys_distinct(self):
        """Two same-named predicates with different behavior must not
        collide in the result cache: each run misses and stores its
        own answer."""
        db = Database()
        db["r"] = CVSet(Tup((i,)) for i in range(6))
        low = Select("cut", lambda t: t.items[0] < 2, Scan("r"))
        high = Select("cut", lambda t: t.items[0] >= 2, Scan("r"))
        a = db.run(low)
        b = db.run(high)
        assert_equivalent(low, db, a)
        assert_equivalent(high, db, b)
        assert a.value != b.value
        assert db.plan_cache.puts == 2


class TestDatabaseCompiledRun:
    def test_run_mode_compiled_join_against_base_relation(self, hr_db):
        db = Database()
        db.create("e", 3)
        db.insert("e", [(i, i % 5, i * 2) for i in range(40)])
        db.create("k", 2)
        db.insert("k", [(i % 5, str(i)) for i in range(10)])
        # The HR join's right side declares a key on the join column.
        hr = hr_db(seed=5, employees=30, students=20, overlap=5)
        for database, plan in (
            (db, Join(((1, 0),), Scan("e"), Scan("k"))),
            (hr, Join(((0, 0),), Scan("employees"), Scan("students"))),
        ):
            result = database.run(plan, use_cache=False, mode="compiled")
            assert_equivalent(plan, database.relations, result)

    def test_hr_workload_matches_reference(self, hr_db):
        db = hr_db()
        plan = Project((0,), Difference(Scan("employees"),
                                        Scan("students")))
        result = db.run(plan, use_cache=False, mode="compiled")
        assert_equivalent(plan, db.relations, result)

    def test_use_cache_false_still_memoizes_the_program(self):
        """``use_cache=False`` disables the *result* cache only; the
        second run takes its code object from ``_code_for``."""
        db = Database()
        db.create("r", 2)
        db.insert("r", [(i, i) for i in range(4)])
        plan = Project((0,), Scan("r"))
        db.run(plan, use_cache=False, mode="compiled")
        misses = _code_for.cache_info().misses
        db.run(plan, use_cache=False, mode="compiled")
        assert _code_for.cache_info().misses == misses
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
