"""Plan-compiler parity and lowering tests.

``execute_compiled`` carries the engine's contract — identical
``CVSet`` answer, identical total work, identical per-node ledger as the
reference interpreter — while lowering the plan to a list of operator
closures.  On top of parity, these tests pin how plans are lowered:
every run lowers the plan against the current data without generating
or compiling any source, weights are summed in C, and
``Database.run``'s result cache serves both executors.
"""

import builtins
import random

import repro.engine.exec.compile as compile_module
from repro.engine.database import Database
from repro.engine.exec import compile_plan, execute_compiled
from repro.engine.workload import (
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
        registers, _ = compiled.run()
        assert CVSet(compiled.answer(registers)) == CVSet({Tup((1,))})


class TestNoCodeGeneration:
    """Plans lower to prebuilt closures: no run generates or compiles
    Python source, however often a plan reruns and whatever the data
    does in between."""

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

    def test_no_compile_or_exec_call(self, monkeypatch, compile_calls):
        """Gate: 12 plans, each run in 3 rounds with inserts into both
        relations it reads after every run, are lowered 36 times and
        make no ``compile()`` or ``exec()`` call."""
        db = self._db()
        plans = self._plans()
        calls = []
        for name in ("compile", "exec"):
            real = getattr(builtins, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(builtins, name, counting)
        fresh = 100
        for _ in range(3):
            for plan in plans:
                assert_equivalent(plan, db, db.run(plan))
                db.insert("r", [(fresh, fresh % 3)])
                db.insert("s", [(fresh % 3, fresh)])
                fresh += 1
        assert calls == []
        assert len(compile_calls) == 3 * len(plans)


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

    def _seeded_plans(self, db):
        rng = random.Random("tup-budget")
        return [
            random_plan(rng, sorted(db.relations), base_arity=3, depth=3)
            for _ in range(40)
        ]

    def test_tup_builds_on_a_seeded_plan_set(self, hr_db, monkeypatch):
        """40 seeded random plans over the HR database build exactly
        this many ``Tup``s.  One ``Tup`` per output row of every
        operator would make 23,982."""
        db = hr_db()
        plans = self._seeded_plans(db)
        builds = _count_tup_builds(monkeypatch)
        results = [execute_compiled(plan, db.relations) for plan in plans]
        count = builds[0]
        monkeypatch.undo()
        for plan, result in zip(plans, results):
            assert_equivalent(plan, db, result)
        assert count == 3_940

    def test_weights_are_summed_in_c(self, hr_db, monkeypatch):
        """The same plans weigh every input of unknown width (the map
        outputs) from row lengths read in C: no per-row
        ``tuple_weight`` call, which would make 765, and the same total
        work as the reference."""
        db = hr_db()
        plans = self._seeded_plans(db)
        calls = [0]
        weigh = compile_module.tuple_weight

        def counting(t):
            calls[0] += 1
            return weigh(t)

        monkeypatch.setattr(compile_module, "tuple_weight", counting)
        results = [execute_compiled(plan, db.relations) for plan in plans]
        monkeypatch.undo()
        for plan, result in zip(plans, results):
            assert_equivalent(plan, db, result)
        assert calls[0] == 0
        assert sum(result.work for result in results) == 69_424

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

    def test_use_cache_false_lowers_every_run(self, compile_calls):
        """``use_cache=False`` bypasses the result cache: every run
        lowers the plan and nothing is stored."""
        db = Database()
        db.create("r", 2)
        db.insert("r", [(i, i) for i in range(4)])
        plan = Project((0,), Scan("r"))
        for _ in range(2):
            result = db.run(plan, use_cache=False, mode="compiled")
            assert_equivalent(plan, db, result)
        assert compile_calls == [plan, plan]
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
