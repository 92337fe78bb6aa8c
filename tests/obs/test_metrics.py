"""MetricsRegistry semantics: counters, snapshots, merge, deltas, and
the jobs=1 == jobs=N determinism guarantee end-to-end through the fuzz
harness.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.metrics import REGISTRY, MetricsRegistry, snapshot_delta


@pytest.fixture(autouse=True)
def _clean_registry():
    """Process-wide registry state must not leak between tests."""
    REGISTRY.clear()
    yield
    REGISTRY.clear()


class TestInstruments:
    def test_counter_accumulates_and_returns_total(self):
        reg = MetricsRegistry()
        assert reg.counter("c") == 1
        assert reg.counter("c", 4) == 5
        assert reg.snapshot()["counters"] == {"c": 5}

    def test_clear_and_repr(self):
        reg = MetricsRegistry()
        reg.counter("c")
        assert "counters=1" in repr(reg)
        reg.clear()
        assert reg.snapshot() == {"counters": {}}


class TestSnapshotDeterminism:
    def test_snapshot_is_sorted_and_json_stable(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        # Same writes, opposite order.
        a.counter("x")
        a.counter("b", 2)
        b.counter("b", 2)
        b.counter("x")
        assert json.dumps(a.snapshot()) == json.dumps(b.snapshot())
        assert list(a.snapshot()["counters"]) == ["b", "x"]

    def test_render_is_deterministic(self):
        reg = MetricsRegistry()
        reg.counter("runs", 3)
        reg.counter("depth", 4)
        assert reg.render() == "counter   depth = 4\ncounter   runs = 3"


class TestMerge:
    def test_counters_sum(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c", 2)
        b.counter("c", 5)
        b.counter("only_b")
        a.merge(b.snapshot())
        assert a.snapshot()["counters"] == {"c": 7, "only_b": 1}

    def test_merge_into_empty_registry_copies_everything(self):
        src, dst = MetricsRegistry(), MetricsRegistry()
        src.counter("c", 3)
        dst.merge(src.snapshot())
        assert dst.snapshot() == src.snapshot()


class TestSnapshotDelta:
    def test_delta_isolates_new_activity(self):
        reg = MetricsRegistry()
        reg.counter("c", 3)
        reg.counter("still")
        before = reg.snapshot()
        reg.counter("c", 2)
        reg.counter("new")
        delta = snapshot_delta(reg.snapshot(), before)
        assert delta == {"counters": {"c": 2, "new": 1}}

    def test_quiet_interval_produces_empty_delta(self):
        reg = MetricsRegistry()
        reg.counter("c")
        snap = reg.snapshot()
        assert snapshot_delta(snap, snap) == {"counters": {}}

    def test_merging_deltas_reconstructs_the_whole(self):
        """delta(t2,t1) + delta(t1,t0) folded into a fresh registry
        equals the t2 snapshot — the worker-shipping invariant."""
        reg = MetricsRegistry()
        t0 = reg.snapshot()
        reg.counter("c", 2)
        t1 = reg.snapshot()
        reg.counter("c", 5)
        reg.counter("late")
        t2 = reg.snapshot()
        rebuilt = MetricsRegistry()
        rebuilt.merge(snapshot_delta(t1, t0))
        rebuilt.merge(snapshot_delta(t2, t1))
        assert rebuilt.snapshot() == t2


class TestParallelDeterminism:
    """jobs=1 and jobs=N leave byte-identical registry state."""

    def test_fuzz_trace_metrics_identical_serial_vs_parallel(self):
        from repro.engine.fuzz import run_fuzz

        REGISTRY.clear()
        serial_report = run_fuzz(18, base_seed=11, jobs=1)
        serial = REGISTRY.snapshot()
        REGISTRY.clear()
        parallel_report = run_fuzz(18, base_seed=11, jobs=2)
        parallel = REGISTRY.snapshot()
        assert serial_report.summary() == parallel_report.summary()
        assert json.dumps(serial) == json.dumps(parallel)
        # Counters of the trace, faults and recovery scenarios, all
        # merged from the workers' deltas.
        assert serial["counters"]["fuzz.trace.plans"] > 0
        assert serial["counters"]["robustness.degraded"] > 0
        assert serial["counters"]["robustness.wal.recoveries"] > 0
