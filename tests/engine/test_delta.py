"""Semi-naive delta maintenance of cached plan results.

Covers the maintainability analyzer (genericity classes), in-place
patching of ``PlanCache`` entries on insert (re-keying, fresh seals,
counters), the Difference right-delta forced invalidation, the
maintenance fault site's degradation contract, and the byte-identity
property over random insert sequences in both executor modes.
"""

import random

import pytest

from repro.engine.database import Database
from repro.engine.exec import PlanCache, entry_seal
from repro.engine.exec.delta import (
    DELTA_MONOTONE,
    OPAQUE,
    SEMI_MAINTAINABLE,
    DeltaError,
    MaintainedView,
    analyze_plan,
    classify,
)
from repro.engine.workload import random_plan
from repro.optimizer.plan import (
    Difference,
    Intersect,
    Join,
    MapNode,
    Plan,
    Product,
    Project,
    Scan,
    Select,
    Union,
)
from repro.robustness import FaultInjector, FaultPlan
from repro.types.values import tup
from tests.conftest import NAMES as _NAMES


def _even(t):
    return t[0] % 2 == 0


def _swap(t):
    return tup(t[1], t[0])


def _assert_parity(db, plan, mode="compiled"):
    got = db.run(plan, mode=mode)
    want = db.run_reference(plan)
    assert got.value == want.value
    assert got.work == want.work
    assert got.per_node == want.per_node


class TestAnalyzer:
    def test_monotone_operators_classified(self):
        scan = Scan("r")
        for node in (
            scan,
            Project((0,), scan),
            Select("even", _even, scan),
            MapNode("swap", _swap, scan),
            Union(scan, Scan("s")),
            Intersect(scan, Scan("s")),
            Product(scan, Scan("s")),
            Join(((0, 0),), scan, Scan("s")),
        ):
            assert classify(node) == DELTA_MONOTONE

    def test_difference_is_semi_maintainable(self):
        assert classify(Difference(Scan("r"), Scan("s"))) == (
            SEMI_MAINTAINABLE
        )

    def test_unknown_node_is_opaque(self):
        class Mystery(Plan):
            pass

        assert classify(Mystery()) == OPAQUE
        report = analyze_plan(Mystery())
        assert not report.maintainable
        assert not report.maintainable_for("r")

    def test_right_of_difference_forces_recompute(self):
        plan = Difference(Scan("r"), Project((0,), Scan("s")))
        report = analyze_plan(plan)
        assert report.maintainable
        assert report.recompute_relations == frozenset({"s"})
        assert report.maintainable_for("r")
        assert not report.maintainable_for("s")

    def test_relation_on_both_sides_not_maintainable(self):
        plan = Difference(Scan("r"), Scan("r"))
        assert not analyze_plan(plan).maintainable_for("r")

    def test_class_counts_surfaced(self):
        plan = Difference(Union(Scan("r"), Scan("s")), Scan("t"))
        report = analyze_plan(plan)
        assert report.classes[SEMI_MAINTAINABLE] == 1
        assert report.classes[DELTA_MONOTONE] == 4  # union + 3 scans


class TestMaintainedEntries:
    def test_insert_patches_entry_instead_of_invalidating(self, small_db):
        db = small_db
        plan = Project((0,), Scan("r"))
        db.run(plan)  # populate
        puts_before = db.plan_cache.puts
        db.insert("r", [(8, 9)])
        assert db.plan_cache.maintained >= 1
        assert db.plan_cache.maintain_fallback == 0
        # The warm re-run is served from the patched entry: a hit, no
        # new put, and byte-identical to cold recomputation.
        hits_before = db.plan_cache.hits
        _assert_parity(db, plan)
        assert db.plan_cache.hits == hits_before + 1
        assert db.plan_cache.puts == puts_before

    def test_counters_in_stats(self, small_db):
        db = small_db
        plan = Union(Scan("r"), Scan("s"))
        db.run(plan)
        db.insert("r", [(9, 9)])
        stats = db.plan_cache.stats()
        assert stats["maintained"] >= 1
        assert stats["maintain_fallback"] == 0
        db.plan_cache.reset_stats()
        stats = db.plan_cache.stats()
        assert stats["maintained"] == 0
        assert stats["maintain_fallback"] == 0

    def test_patched_entry_reseals(self, small_db):
        """In-place patching must stamp a fresh, valid seal: the warm
        hit revalidates it, so a stale seal would surface as a
        corruption + miss."""
        db = small_db
        plan = Select("even", _even, Scan("r"))
        db.run(plan)
        db.insert("r", [(8, 1)])
        assert db.plan_cache.maintained == 1
        cache = db.plan_cache
        ((key, entry),) = list(cache._entries.items())
        assert entry.seal == entry_seal(
            entry.value, entry.work, entry.entries
        )
        assert cache.corruptions == 0
        _assert_parity(db, plan)
        assert cache.corruptions == 0  # revalidation passed

    def test_patched_entry_rekeyed_under_new_fingerprint(self, small_db):
        db = small_db
        plan = Project((1,), Scan("r"))
        db.run(plan)
        (old_key,) = list(db.plan_cache._entries)
        db.insert("r", [(7, 7)])
        (new_key,) = list(db.plan_cache._entries)
        assert new_key != old_key
        assert new_key[0] == old_key[0]  # same semantic token
        assert new_key == db.plan_cache.key_for(plan, db.relations)

    def test_difference_right_delta_invalidates(self, small_db):
        db = small_db
        plan = Difference(Scan("r"), Scan("s"))
        db.run(plan)
        assert len(db.plan_cache) == 1
        db.insert("s", [(1, 2)])  # right-side delta: must invalidate
        assert len(db.plan_cache) == 0
        assert db.plan_cache.maintained == 0
        assert db.plan_cache.invalidations == 1
        # Plain invalidation is *expected* behaviour, not a fallback.
        assert db.plan_cache.maintain_fallback == 0
        _assert_parity(db, plan)

    def test_difference_left_delta_maintains(self, small_db):
        db = small_db
        plan = Difference(Scan("r"), Scan("s"))
        db.run(plan)
        db.insert("r", [(6, 7), (9, 9)])  # (6,7) is subtracted away
        assert db.plan_cache.maintained == 1
        _assert_parity(db, plan)

    def test_join_delta_both_sides(self, small_db):
        db = small_db
        plan = Join(((1, 0),), Scan("r"), Scan("s"))
        db.run(plan)
        db.insert("r", [(0, 2), (0, 6)])
        db.insert("s", [(3, 0), (5, 5)])
        assert db.plan_cache.maintained == 2
        _assert_parity(db, plan)

    def test_maintenance_disabled_restores_invalidation(self, small_db):
        db = small_db
        db.plan_cache.maintenance_enabled = False
        plan = Project((0,), Scan("r"))
        db.run(plan)
        db.insert("r", [(8, 9)])
        assert db.plan_cache.maintained == 0
        assert len(db.plan_cache) == 0
        assert db.plan_cache.invalidations == 1
        _assert_parity(db, plan)

    def test_eviction_drops_view_state(self):
        cache = PlanCache(capacity=1)
        db = Database(cache_capacity=1)
        db.create("r", 2)
        db.insert("r", [(1, 2)])
        p1 = Project((0,), Scan("r"))
        p2 = Project((1,), Scan("r"))
        db.run(p1)
        db.run(p2)  # evicts p1's entry
        assert len(db.plan_cache) == 1
        assert len(db.plan_cache._views) == 1
        db.plan_cache.invalidate(None)
        assert not db.plan_cache._views
        assert cache is not db.plan_cache  # sanity

    def test_entry_without_plan_invalidates(self, small_db):
        """Entries put without a plan (no view registered) fall back to
        plain invalidation on insert."""
        db = small_db
        plan = Project((0,), Scan("r"))
        key = db.plan_cache.key_for(plan, db.relations)
        result = db.run_reference(plan)
        from repro.engine.exec.cache import CacheEntry

        db.plan_cache.put(
            key,
            CacheEntry(
                result.value,
                result.work,
                tuple(result.per_node),
                frozenset({"r"}),
            ),
        )
        db.insert("r", [(8, 9)])
        assert len(db.plan_cache) == 0
        assert db.plan_cache.maintained == 0
        assert db.plan_cache.maintain_fallback == 0


class TestMaintenanceFaults:
    def test_injected_fault_degrades_to_invalidation(self, small_db):
        db = small_db
        plan = Project((0,), Scan("r"))
        db.run(plan)
        db.fault_injector = FaultInjector(
            FaultPlan(seed=1, maintenance_rate=1.0)
        )
        db.insert("r", [(8, 9)])  # fault fires inside maintain()
        assert db.plan_cache.maintain_fallback == 1
        assert db.plan_cache.maintained == 0
        assert len(db.plan_cache) == 0
        db.fault_injector = None
        _assert_parity(db, plan)  # recomputes cold, identical answer

    def test_fallback_counter_in_metrics(self, small_db):
        from repro.obs.metrics import REGISTRY

        before = REGISTRY.snapshot().get("counters", {}).get(
            "robustness.maintenance.fallback", 0
        )
        db = small_db
        plan = Union(Scan("r"), Scan("s"))
        db.run(plan)
        db.fault_injector = FaultInjector(
            FaultPlan(seed=2, maintenance_rate=1.0)
        )
        db.insert("r", [(8, 9)])
        after = REGISTRY.snapshot().get("counters", {}).get(
            "robustness.maintenance.fallback", 0
        )
        assert after == before + 1


class TestMaintainedView:
    def test_apply_refuses_unmaintainable_relation(self):
        view = MaintainedView(Difference(Scan("r"), Scan("s")))
        with pytest.raises(DeltaError):
            view.apply("s", [tup(1, 2)], {})

    def test_result_requires_bootstrap(self):
        view = MaintainedView(Scan("r"))
        with pytest.raises(DeltaError):
            view.result()

    def test_incremental_matches_reference_per_step(self, small_db):
        db = small_db
        plan = Union(
            Join(((0, 0),), Scan("r"), Scan("s")),
            Product(Project((0,), Scan("r")), Scan("t")),
        )
        view = MaintainedView(plan)
        view.apply("r", [], db.relations)  # bootstrap
        rng = random.Random(11)
        for _ in range(5):
            name = rng.choice(_NAMES)
            rows = [
                (rng.randrange(7), rng.randrange(7))
                for _ in range(rng.randint(1, 3))
            ]
            db.plan_cache.maintenance_enabled = False  # isolate the view
            db.insert(name, rows)
            view.apply(name, [tup(*row) for row in rows], db.relations)
            want = db.run_reference(plan)
            value, work, entries = view.result()
            assert value == want.value
            assert work == want.work
            assert list(entries) == want.per_node


class TestByteIdentityProperty:
    """After any insert sequence, a maintained cached value is
    byte-identical to cold recomputation, in every executor mode."""

    @pytest.mark.parametrize("mode", ["compiled", "reference"])
    def test_random_insert_sequences(self, mode):
        rng = random.Random(hash(mode) % 10_000)
        for trial in range(5):
            db = Database()
            for name in _NAMES:
                db.create(name, 2)
                db.insert(
                    name,
                    {
                        (rng.randrange(5), rng.randrange(5))
                        for _ in range(rng.randint(2, 8))
                    },
                )
            plans = [
                random_plan(rng, _NAMES, depth=rng.randint(1, 4))
                for _ in range(4)
            ]
            for plan in plans:
                db.run(plan, mode=mode)
            for _ in range(4):
                victim = rng.choice(_NAMES)
                db.insert(
                    victim,
                    [
                        (rng.randrange(6), rng.randrange(6))
                        for _ in range(rng.randint(1, 3))
                    ],
                )
                for plan in plans:
                    _assert_parity(db, plan, mode=mode)
            assert db.plan_cache.maintain_fallback == 0
