"""Graceful degradation in ``Database.run``: the fallback chain, its
observability (metrics + span meta + EXPLAIN), and seal revalidation
under live cache corruption."""

import pytest

from repro.engine.database import MODE_CHAIN, Database
from repro.obs import explain
from repro.obs.metrics import REGISTRY
from repro.obs.trace import Tracer
from repro.optimizer.plan import Join, Project, Scan
from repro.robustness import FaultInjector, FaultPlan, InjectedFault


def _db():
    db = Database()
    db.create("r", 2)
    db.insert("r", [(1, 2), (2, 3), (3, 4)])
    db.create("s", 2)
    db.insert("s", [(2, 10), (4, 20)])
    return db


def _plan():
    return Project((0, 2), Join(((1, 0),), Scan("r"), Scan("s")))


def _counters():
    return dict(REGISTRY.snapshot().get("counters", {}))


def _delta(after, before, key):
    return after.get(key, 0) - before.get(key, 0)


class TestDegradationChain:
    @pytest.mark.parametrize("mode", ["compiled"])
    def test_operator_fault_degrades_with_identical_result(self, mode):
        db = _db()
        plan = _plan()
        want = db.run_reference(plan)
        db.fault_injector = FaultInjector(
            FaultPlan(seed=1, operator_rate=1.0, compile_rate=1.0)
        )
        before = _counters()
        got = db.run(plan, mode=mode, use_cache=False)
        after = _counters()
        assert got.value == want.value
        assert got.work == want.work
        assert got.per_node == want.per_node
        # Every mode before the reference fails (rate 1.0), so the full
        # remaining chain is walked.
        expected_steps = len(MODE_CHAIN) - 1 - MODE_CHAIN.index(mode)
        assert _delta(after, before, "robustness.degraded") == expected_steps
        assert _delta(after, before, f"robustness.degraded.{mode}") == 1

    def test_compile_fault_fires_on_every_run(self):
        """A plan that already ran compiled is lowered again on its
        next run, so the ``compile`` fault site fires there too."""
        db = _db()
        plan = _plan()
        want = db.run_reference(plan)
        db.run(plan)
        db.fault_injector = FaultInjector(
            FaultPlan(seed=7, compile_rate=1.0)
        )
        before = _counters()
        got = db.run(plan, mode="compiled", use_cache=False)
        after = _counters()
        assert _delta(after, before, "robustness.degraded.compiled") == 1
        assert got.value == want.value
        assert got.work == want.work
        assert got.per_node == want.per_node

    def test_reference_mode_never_degrades(self):
        db = _db()
        db.fault_injector = FaultInjector(
            FaultPlan(seed=1, operator_rate=1.0)
        )
        want = db.run_reference(_plan())
        got = db.run(_plan(), mode="reference")
        assert got.value == want.value

    def test_real_error_at_end_of_chain_propagates(self):
        db = _db()
        bad = Project((9,), Scan("r"))  # out-of-range column everywhere
        with pytest.raises(IndexError):
            db.run(bad, mode="compiled", use_cache=False)

    def test_invalid_mode_still_value_error(self):
        with pytest.raises(ValueError, match="mode must be"):
            _db().run(_plan(), mode="bogus")

    def test_injector_detaches_from_cache_too(self):
        db = _db()
        injector = FaultInjector(FaultPlan(seed=2, cache_rate=1.0))
        db.fault_injector = injector
        assert db.plan_cache.fault_injector is injector
        db.fault_injector = None
        assert db.plan_cache.fault_injector is None


class TestDegradationObservability:
    def test_span_meta_records_every_fallback(self):
        db = _db()
        db.fault_injector = FaultInjector(
            FaultPlan(seed=3, operator_rate=1.0, compile_rate=1.0)
        )
        tracer = Tracer()
        db.run(_plan(), mode="compiled", use_cache=False, tracer=tracer)
        events = tracer.last.meta["degraded"]
        assert [e["mode"] for e in events] == ["compiled"]
        assert [e["to"] for e in events] == ["reference"]
        assert all("InjectedFault" in e["error"] for e in events)

    def test_explain_surfaces_degradation(self):
        db = _db()
        db.fault_injector = FaultInjector(
            FaultPlan(seed=5, operator_rate=1.0)
        )
        report = explain(_plan(), db, mode="compiled", use_cache=False)
        assert report.degraded is not None
        assert report.degraded[0]["mode"] == "compiled"
        assert "degraded: compiled -> reference" in report.render()
        assert "degraded" in report.to_dict(wall=False)

    def test_explain_clean_run_has_no_degraded_block(self):
        report = explain(_plan(), _db(), mode="compiled")
        assert report.degraded is None
        assert "degraded:" not in report.render()


class TestCacheCorruptionLive:
    def test_tampered_warm_entry_recomputed_not_served(self):
        db = _db()
        plan = _plan()
        want = db.run_reference(plan)
        warm = db.run(plan)  # populate
        assert warm.value == want.value
        db.fault_injector = FaultInjector(FaultPlan(seed=6, cache_rate=1.0))
        before = _counters()
        got = db.run(plan)  # tampered hit -> revalidation -> recompute
        after = _counters()
        assert got.value == want.value
        assert got.work == want.work
        assert db.plan_cache.corruptions >= 1
        assert (
            _delta(after, before, "robustness.cache.corruption_detected")
            >= 1
        )

    def test_injected_fault_type(self):
        injector = FaultInjector(FaultPlan(seed=8, operator_rate=1.0))
        with pytest.raises(InjectedFault):
            injector.maybe_raise("operator")
