"""Tracing contract properties (see ``src/repro/obs/trace.py``).

Four pinned guarantees, each over randomized plans/databases:

* **work conservation** — for every traced execution, on the reference
  interpreter, the compiled executor and ``Database.run``, the span
  works sum *exactly* to the executor's ledger total (cache/CSE-served
  spans carry their subtree's as-if work, so the identity holds in
  every cache state);
* **observer effect zero** — a traced run returns identical values,
  work and ledgers as an untraced run, and leaves a cache in an
  identical state (same keys, same stats, same stored values);
* **cross-executor agreement** — on plans without shared subtrees,
  the compiled and reference span trees agree node-for-node on labels,
  work, cache annotations and shape;
* **zero overhead when off** — with no tracer, no ``Span`` is built on
  a cache miss or hit, in either mode, on a degraded run, or by either
  executor called directly.

Randomness is derived per-case via ``derive_rng``, so every case is
reproducible in isolation.
"""

from __future__ import annotations

import pytest

from repro.engine.database import Database
from repro.engine.exec import execute_compiled
from repro.engine.workload import (
    deep_chain_plan,
    derive_rng,
    random_database,
    random_nested_database,
    random_plan,
)
from repro.obs import Span, Tracer
from repro.optimizer.plan import (
    Join,
    Project,
    Scan,
    Select,
    execute_reference,
)

_NAMES = ("r", "s", "t")

#: 200 random plans, as the tracing contract demands; split across the
#: three entry points by round-robin so the full set covers each.
N_PLANS = 200


def _case(i: int, scenario: str):
    """Deterministic (plan, db) for case ``i``."""
    rng = derive_rng(2024, i, scenario)
    make_db = random_nested_database if i % 5 == 0 else random_database
    db = make_db(rng, _NAMES)
    plan = random_plan(rng, _NAMES, depth=rng.randint(1, 4))
    return plan, db


def _live(relations) -> Database:
    """A ``Database`` holding ``relations`` (any element shape)."""
    db = Database()
    for name, relation in relations.items():
        db[name] = relation
    return db


class TestWorkConservation:
    """Span works sum exactly to the executor's ledger total."""

    @pytest.mark.parametrize("i", range(N_PLANS))
    def test_span_work_sums_to_ledger_total(self, i):
        plan, db = _case(i, "worksum")
        mode = ("reference", "compiled", "database")[i % 3]
        tracer = Tracer()
        if mode == "reference":
            result = execute_reference(plan, db, tracer=tracer)
        elif mode == "compiled":
            result = execute_compiled(plan, db, tracer=tracer)
        else:
            result = _live(db).run(plan, tracer=tracer)
        root = tracer.last
        assert root.total_work() == result.work
        assert root.rows == len(result.value)
        # Work must also be conserved under every subtree: each span's
        # subtree total is the sum of its own charge plus its children's
        # subtrees (walk() is preorder, so compute bottom-up on a copy).
        assert (
            sum(span.work for span in root.walk()) == result.work
        )

    @pytest.mark.parametrize("i", range(0, N_PLANS, 10))
    def test_span_work_sums_in_every_cache_state(self, i):
        """Warm runs splice as-if work into hit spans; totals still hold."""
        plan, db = _case(i, "worksum-cache")
        reference = execute_reference(plan, db)
        for mode in ("compiled", "reference"):
            live = _live(db)
            for _ in range(3):  # cold, warm, warm
                tracer = Tracer()
                result = live.run(plan, mode=mode, tracer=tracer)
                assert result.work == reference.work
                assert tracer.last.total_work() == reference.work
                assert tracer.last.rows == len(reference.value)


class TestObserverEffectZero:
    """Tracing never changes results, ledgers, or cache contents."""

    @pytest.mark.parametrize("i", range(0, N_PLANS, 4))
    def test_traced_and_untraced_runs_are_identical(self, i):
        plan, db = _case(i, "observer")
        for mode in ("compiled", "reference"):
            traced_db, plain_db = _live(db), _live(db)
            for _ in range(2):  # cold then warm
                traced = traced_db.run(plan, mode=mode, tracer=Tracer())
                plain = plain_db.run(plan, mode=mode)
                assert traced.value == plain.value
                assert traced.work == plain.work
                assert traced.per_node == plain.per_node
            # Identical cache state: same counters, same keys, same
            # stored answers.
            traced_cache, plain_cache = (
                traced_db.plan_cache, plain_db.plan_cache
            )
            assert traced_cache.stats() == plain_cache.stats()
            assert set(traced_cache._entries) == set(plain_cache._entries)
            for key, entry in traced_cache._entries.items():
                other = plain_cache._entries[key]
                assert entry.value == other.value
                assert entry.work == other.work
                assert entry.entries == other.entries

    @pytest.mark.parametrize("i", range(0, N_PLANS, 20))
    def test_reference_traced_matches_untraced(self, i):
        plan, db = _case(i, "observer-ref")
        traced = execute_reference(plan, db, tracer=Tracer())
        plain = execute_reference(plan, db)
        assert traced.value == plain.value
        assert traced.work == plain.work
        assert traced.per_node == plain.per_node


class TestCrossExecutorAgreement:
    """Compiled and reference span trees agree node-for-node."""

    @pytest.mark.parametrize("i", range(0, N_PLANS, 2))
    def test_compiled_and_reference_same_shape(self, i):
        plan, db = _case(i, "structure")
        tc, tr = Tracer(), Tracer()
        execute_compiled(plan, db, tracer=tc)
        execute_reference(plan, db, tracer=tr)
        assert tc.last.total_work() == tr.last.total_work()
        if all(span.cache != "cse" for span in tc.last.walk()):
            assert tc.last.structure() == tr.last.structure()

    def test_reference_matches_compiled_without_cse(self):
        """On a plan with no repeated subtrees, the compiled tree —
        directly and through ``Database.run`` — has the reference's
        shape."""
        _, db = _case(3, "structure-ref")
        plan = Project(
            (0, 3),
            Join(((0, 0),), Scan("r"),
                 Select("all", lambda t: True, Scan("s"))),
        )
        tr, tc, td = Tracer(), Tracer(), Tracer()
        execute_reference(plan, db, tracer=tr)
        execute_compiled(plan, db, tracer=tc)
        _live(db).run(plan, use_cache=False, tracer=td)
        assert tc.last.structure() == tr.last.structure()
        assert td.last.structure() == tr.last.structure()

    def test_deep_chain_structures_match_without_recursion(self):
        rng = derive_rng(2024, 0, "structure-deep")
        db = random_database(rng, _NAMES)
        plan = deep_chain_plan(rng, "r", 900)
        tr, td = Tracer(), Tracer()
        rr = execute_reference(plan, db, tracer=tr)
        # Database.run lowers and traces the chain like any other plan.
        rd = _live(db).run(plan, tracer=td)
        assert rr.value == rd.value
        assert tr.last.structure() == td.last.structure()
        assert tr.last.span_count() == 901
        assert hash(tr.last.structure()) == hash(td.last.structure())


class TestZeroOverheadWhenOff:
    """With ``tracer=None`` no :class:`Span` is built on any path: a
    cache miss, a hit, the reference mode, a degraded run, and either
    executor called directly."""

    @pytest.mark.parametrize("i", range(0, N_PLANS, 10))
    def test_untraced_runs_build_no_span(self, monkeypatch, i):
        from repro.robustness import FaultInjector, FaultPlan

        built = []

        def refuse(span, *args, **kwargs):
            # Recorded as well as raised: ``Database.run`` catches
            # executor exceptions and degrades to the reference.
            built.append(args)
            raise AssertionError("Span built with tracing off")

        plan, db = _case(i, "untraced")
        expected = execute_reference(plan, db)
        monkeypatch.setattr(Span, "__init__", refuse)
        live = _live(db)
        results = [live.run(plan), live.run(plan)]
        if not isinstance(plan, Scan):
            assert live.plan_cache.stats()["hits"] == 1
        results.append(live.run(plan, use_cache=False, mode="reference"))
        live.fault_injector = FaultInjector(
            FaultPlan(seed=i, operator_rate=1.0, compile_rate=1.0)
        )
        results.append(live.run(plan, use_cache=False))
        assert sum(live.fault_injector.injected.values()) > 0
        results.append(execute_compiled(plan, db))
        results.append(execute_reference(plan, db))
        assert built == []
        for result in results:
            assert result.value == expected.value
            assert result.work == expected.work


class TestAnnotations:
    """Cache/CSE/source annotations mean what they say."""

    def test_cache_hit_span_is_childless_with_asif_work(self):
        plan, db = _case(1, "annotations")
        live = _live(db)
        cold = live.run(plan)
        tracer = Tracer()
        warm = live.run(plan, tracer=tracer)
        assert warm.value == cold.value
        root = tracer.last
        assert root.cache == "hit"
        assert root.children == []
        assert root.work == cold.work
        assert root.rows == len(cold.value)

    def test_join_against_base_relation_reads_its_right_scan(self):
        """A single-column join whose right child is a bare scan builds
        its index from that scan, so the scan's span counts its rows."""
        rng = derive_rng(2024, 7, "annotations-index")
        db = Database()
        for name in ("a", "b"):
            db.create(name, 2)
            db.insert(
                name,
                {
                    (rng.randrange(6), rng.randrange(6))
                    for _ in range(12)
                },
            )
        plan = Join(left=Scan("a"), right=Scan("b"), on=((0, 0),))
        reference = db.run_reference(plan)
        tracer = Tracer()
        result = db.run(plan, use_cache=False, tracer=tracer)
        assert result.value == reference.value
        root = tracer.last
        right = root.children[1]
        assert right.label == "b"
        assert right.rows == len(db["b"]) and right.work == 0
        assert root.total_work() == reference.work

    def test_span_repr_and_tracer_bookkeeping(self):
        span = Span("scan")
        assert "scan" in repr(span)
        tracer = Tracer()
        assert tracer.last is None and len(tracer) == 0
        tracer.record(span)
        assert tracer.last is span and len(tracer) == 1
        tracer.clear()
        assert tracer.last is None
        assert "0" in repr(tracer)


class TestMetaMerge:
    """Root-span ``meta`` may be written by several layers (the
    executor, the degradation record); ``merge_meta`` must preserve
    what an earlier layer attached."""

    def test_merge_into_empty_meta_copies(self):
        span = Span("root")
        updates = {"executor": {"note": "x"}}
        span.merge_meta(updates)
        assert span.meta == updates
        assert span.meta is not updates  # defensive copy

    def test_merge_preserves_existing_keys(self):
        span = Span("root")
        span.merge_meta({"executor": {"note": "x"}})
        span.merge_meta(
            {"degraded": [{"mode": "compiled", "to": "reference"}]}
        )
        assert span.meta == {
            "executor": {"note": "x"},
            "degraded": [{"mode": "compiled", "to": "reference"}],
        }

    def test_merge_overwrites_only_named_keys(self):
        span = Span("root")
        span.merge_meta({"a": 1, "b": 2})
        span.merge_meta({"b": 3})
        assert span.meta == {"a": 1, "b": 3}

    def test_run_under_faults_surfaces_the_degradation(self):
        """End to end: a run that degrades carries its degradation
        record in the root span's ``to_dict``."""
        from repro.robustness import FaultInjector, FaultPlan

        db = Database()
        db.create("r", 2)
        db.insert("r", [(i, i + 1) for i in range(120)])
        db.create("s", 2)
        db.insert("s", [(i, i * 10) for i in range(0, 240, 2)])
        plan = Project(
            columns=(0, 2),
            child=Join(left=Scan("r"), right=Scan("s"), on=((1, 0),)),
        )
        db.fault_injector = FaultInjector(
            FaultPlan(seed=13, operator_rate=1.0, compile_rate=1.0)
        )
        tracer = Tracer()
        db.run(plan, use_cache=False, tracer=tracer)
        meta = tracer.last.to_dict(wall=False)["meta"]
        assert meta["degraded"][-1]["to"] == "reference"
