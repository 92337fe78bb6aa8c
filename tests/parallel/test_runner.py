"""Parallel harness: determinism, ordering, and byte-identity with the
serial reference paths.

Worker counts stay at 2 and workloads tiny — these are correctness
tests (same bytes out, any core count), not throughput tests.
"""

import pytest

from repro.engine.fuzz import run_fuzz
from repro.experiments.registry import run_all
from repro.experiments.report import render_many
from repro.parallel import (
    chunked,
    parallel_map,
    render_verdicts,
    run_invariance_cell,
    sweep_invariance,
    tightest,
)


def _square(x):
    return x * x


class TestParallelMap:
    def test_serial_path_matches_comprehension(self):
        items = list(range(17))
        assert parallel_map(_square, items, jobs=1) == [x * x for x in items]

    def test_parallel_preserves_input_order(self):
        items = list(range(23))
        got = parallel_map(_square, items, jobs=2, chunk_size=4)
        assert got == [x * x for x in items]

    def test_chunk_size_one(self):
        items = [3, 1, 4, 1, 5]
        got = parallel_map(_square, items, jobs=2, chunk_size=1)
        assert got == [9, 1, 16, 1, 25]

    def test_empty_and_singleton_inputs(self):
        assert parallel_map(_square, [], jobs=4) == []
        assert parallel_map(_square, [7], jobs=4) == [49]

    def test_chunked_is_contiguous_and_complete(self):
        items = list(range(10))
        chunks = list(chunked(items, 3))
        assert chunks == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]
        with pytest.raises(ValueError):
            list(chunked(items, 0))


class TestCrashRecovery:
    def test_retry_recovers_first_attempt_crashes(self):
        from repro.robustness import WorkerCrash

        items = list(range(20))
        got = parallel_map(
            _square,
            items,
            jobs=2,
            chunk_size=3,
            chunk_fault=WorkerCrash(seed=7, rate=0.5, crash_attempts=1),
        )
        assert got == [x * x for x in items]

    def test_exhausted_retries_fall_back_to_parent_serial(self):
        from repro.robustness import WorkerCrash

        items = list(range(20))
        got = parallel_map(
            _square,
            items,
            jobs=2,
            chunk_size=3,
            max_chunk_retries=1,
            chunk_fault=WorkerCrash(seed=7, rate=0.6, crash_attempts=99),
        )
        assert got == [x * x for x in items]

    def test_crash_recovery_bumps_metrics(self):
        from repro.obs.metrics import REGISTRY
        from repro.robustness import WorkerCrash

        before = dict(REGISTRY.snapshot().get("counters", {}))
        parallel_map(
            _square,
            list(range(16)),
            jobs=2,
            chunk_size=2,
            chunk_fault=WorkerCrash(seed=5, rate=1.0, crash_attempts=1),
        )
        after = dict(REGISTRY.snapshot().get("counters", {}))
        key = "robustness.parallel.chunk_retries"
        assert after.get(key, 0) > before.get(key, 0)

    def test_exhausted_retries_bump_fallback_counter_per_chunk(self):
        """rate=1.0 crashes every chunk on every attempt: each of the
        four chunks burns its one retry, then runs serially in the
        parent — one ``serial_fallbacks`` bump per chunk, and at least
        one retry per chunk before that."""
        from repro.obs.metrics import REGISTRY
        from repro.robustness import WorkerCrash

        counters = REGISTRY.snapshot()["counters"]
        fallbacks = counters.get("robustness.parallel.serial_fallbacks", 0)
        retries = counters.get("robustness.parallel.chunk_retries", 0)
        items = list(range(12))
        got = parallel_map(
            _square,
            items,
            jobs=2,
            chunk_size=3,
            max_chunk_retries=1,
            chunk_fault=WorkerCrash(seed=7, rate=1.0, crash_attempts=99),
        )
        counters = REGISTRY.snapshot()["counters"]
        assert got == [x * x for x in items]
        assert counters["robustness.parallel.serial_fallbacks"] - fallbacks == 4
        assert counters["robustness.parallel.chunk_retries"] - retries == 4

    def test_partial_crash_retries_bounded_and_output_ordered(self):
        """A genuinely partial crash round: every seeded-to-crash chunk
        is retried (a broken pool may take innocent in-flight chunks
        with it, so the count can exceed that, but never the chunk
        count), nothing falls back to the parent — ``crash_attempts=1``
        means every retry succeeds — and the merged output is still
        exactly the input-order comprehension."""
        from repro.obs.metrics import REGISTRY
        from repro.robustness import WorkerCrash

        fault = WorkerCrash(seed=11, rate=0.4, crash_attempts=1)
        n_chunks = -(-24 // 4)
        crashing = [i for i in range(n_chunks) if fault.crashes(i)]
        assert crashing and len(crashing) < n_chunks  # genuinely partial
        counters = REGISTRY.snapshot()["counters"]
        retries = counters.get("robustness.parallel.chunk_retries", 0)
        fallbacks = counters.get("robustness.parallel.serial_fallbacks", 0)
        got = parallel_map(
            _square, list(range(24)), jobs=2, chunk_size=4, chunk_fault=fault
        )
        counters = REGISTRY.snapshot()["counters"]
        assert got == [x * x for x in range(24)]
        retried = counters["robustness.parallel.chunk_retries"] - retries
        assert len(crashing) <= retried <= n_chunks
        assert (
            counters.get("robustness.parallel.serial_fallbacks", 0)
            == fallbacks
        )

    def test_real_worker_exception_still_propagates(self):
        # Exceptions are serial semantics, not crashes: no retry.
        with pytest.raises(ZeroDivisionError):
            parallel_map(_reciprocal, [2, 1, 0, 4], jobs=2, chunk_size=1)

    def test_serial_path_ignores_chunk_fault(self):
        from repro.robustness import WorkerCrash

        items = list(range(6))
        got = parallel_map(
            _square,
            items,
            jobs=1,
            chunk_fault=WorkerCrash(seed=1, rate=1.0, crash_attempts=99),
        )
        assert got == [x * x for x in items]


def _reciprocal(x):
    return 1 / x


def _instrumented_square(x):
    from repro.obs.metrics import counter, gauge, observe

    counter("test.parallel.items")
    gauge("test.parallel.largest", float(x))
    observe("test.parallel.value", float(x))
    return x * x


class TestMergeMetrics:
    def test_parallel_totals_identical_to_serial(self):
        """Counter/histogram totals (and the max-merged gauge) come
        out the same whether the worker ran in-process or its deltas
        were shipped back and merged in chunk order."""
        from repro.obs.metrics import REGISTRY, snapshot_delta

        items = list(range(12))
        before = REGISTRY.snapshot()
        serial = parallel_map(_instrumented_square, items, jobs=1,
                              merge_metrics=True)
        mid = REGISTRY.snapshot()
        sharded = parallel_map(_instrumented_square, items, jobs=2,
                               chunk_size=3, merge_metrics=True)
        after = REGISTRY.snapshot()
        assert serial == sharded == [x * x for x in items]
        serial_delta = snapshot_delta(mid, before)
        parallel_delta = snapshot_delta(after, mid)
        assert (
            parallel_delta["counters"]["test.parallel.items"]
            == serial_delta["counters"]["test.parallel.items"]
            == len(items)
        )
        assert (
            parallel_delta["histograms"]["test.parallel.value"]
            == serial_delta["histograms"]["test.parallel.value"]
        )
        assert (
            parallel_delta["gauges"]["test.parallel.largest"]
            == serial_delta["gauges"]["test.parallel.largest"]
            == float(max(items))
        )

    def test_shipped_deltas_ignore_inherited_parent_state(self):
        """Workers fork with the parent's registry contents and pool
        processes are reused across chunks; only the *delta* ships, so
        neither inherited state nor chunk reuse double-counts."""
        from repro.obs.metrics import REGISTRY, counter

        counter("test.parallel.items", 1000)  # forked into every worker
        before = REGISTRY.snapshot()["counters"]["test.parallel.items"]
        # chunk_size=1 over 8 items on 2 workers: processes are reused
        # for several chunks each.
        parallel_map(_instrumented_square, list(range(8)), jobs=2,
                     chunk_size=1, merge_metrics=True)
        after = REGISTRY.snapshot()["counters"]["test.parallel.items"]
        assert after - before == 8

    def test_crash_fallback_totals_still_exact(self):
        """Mixed outcome run: some chunks ship deltas from workers,
        crashed chunks fall back to the parent (writing the live
        registry directly, no delta).  Totals still come out exact —
        the fault hook fires *before* the chunk body, so a crashed
        attempt never half-reports."""
        from repro.obs.metrics import REGISTRY
        from repro.robustness import WorkerCrash

        items = list(range(20))
        before = REGISTRY.snapshot()["counters"].get("test.parallel.items", 0)
        got = parallel_map(
            _instrumented_square,
            items,
            jobs=2,
            chunk_size=3,
            max_chunk_retries=1,
            merge_metrics=True,
            chunk_fault=WorkerCrash(seed=7, rate=0.6, crash_attempts=99),
        )
        after = REGISTRY.snapshot()["counters"]["test.parallel.items"]
        assert got == [x * x for x in items]
        assert after - before == len(items)
    def test_jobs_report_identical_to_serial(self):
        serial = run_fuzz(8, base_seed=5)
        sharded = run_fuzz(8, base_seed=5, jobs=2)
        assert serial.summary() == sharded.summary()
        assert serial.seeds == sharded.seeds
        assert serial.checks == sharded.checks
        assert [str(d) for d in serial.divergences] == [
            str(d) for d in sharded.divergences
        ]

    def test_seed_results_independent_of_total(self):
        """Seed i plays the same scenarios whether 4 or 8 seeds run —
        the property that makes sharding sound."""
        small = run_fuzz(4, base_seed=5)
        large = run_fuzz(8, base_seed=5)
        assert small.checks <= large.checks
        assert small.ok and large.ok


class TestInvarianceSweep:
    def test_parallel_sweep_byte_identical(self):
        operations = ["projection", "eq_adom"]
        serial = sweep_invariance(operations, trials=4, seed=2, jobs=1)
        sharded = sweep_invariance(operations, trials=4, seed=2, jobs=2)
        assert render_verdicts(serial) == render_verdicts(sharded)
        assert serial == sharded

    def test_matches_serial_classify(self):
        """Cell verdicts agree with the in-process classify() sweep."""
        from repro.cli import OPERATION_CATALOG
        from repro.genericity.classify import classify

        verdicts = sweep_invariance(["even"], trials=5, seed=3, jobs=1)
        row = classify(OPERATION_CATALOG["even"](), trials=5, seed=3)
        assert len(verdicts) == len(row.verdicts)
        for cell, verdict in zip(verdicts, row.verdicts):
            assert cell.spec_name == verdict.spec.name
            assert cell.mode == verdict.mode
            assert cell.label() == verdict.label()

    def test_tightest_follows_lattice_order(self):
        verdicts = sweep_invariance(["eq_adom"], trials=5, seed=0, jobs=1)
        assert tightest(verdicts, "eq_adom", "rel") == "all"
        assert tightest(verdicts, "missing-op", "rel") is None

    def test_single_cell_reproducible(self):
        task = ("even", "bijective", "strong", 4, 1)
        assert run_invariance_cell(task) == run_invariance_cell(task)


class TestRegistrySharding:
    def test_run_all_jobs_identical_reports(self):
        ids = ["E-2.2", "E-2.8"]
        serial = run_all(ids, jobs=1)
        sharded = run_all(ids, jobs=2)
        assert render_many(serial) == render_many(sharded)
        assert [r.exp_id for r in sharded] == ids
