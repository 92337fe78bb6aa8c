"""Tests of the end-to-end benchmark itself, at tiny sizes.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.
"""

from __future__ import annotations

import collections
import json
import os
import sys
import time

import pytest

import hostspeed
import run
import tracing
import workloads

TINY = {
    "paper-writeup": dict(ids=["E-2.2", "E-4.14"]),
    "engine-read": dict(employees=40, students=20, overlap=10, pool=8, queries=60),
    "engine-write": dict(employees=40, students=20, overlap=10, hot=4, ops=40,
                         check_every=5, checkpoint_every=6),
    "optimize-deep": dict(depths=(20, 40)),
}


def _pass(name: str, tracer=None, **overrides) -> dict:
    """One pass in this process: traced, or untraced under a probe."""
    workload = workloads.WORKLOADS[name](0, **dict(TINY[name], **overrides))
    if tracer is not None:
        return workloads.execute(workload, tracer)
    probe = hostspeed.HostProbe()
    probe.start()
    return workloads.execute(workload, probe=probe)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_workload_yields_every_end_to_end_metric(name, capsys):
    result = _pass(name)
    assert result["failed"] == 0, result["failures"]
    summary = run.summarize(name, [result], [result["setup_s"]])
    assert set(summary["metrics"]) == set(run.END_TO_END)
    for metric, (value, unit) in summary["metrics"].items():
        assert value > 0, metric
        assert unit == run.END_TO_END[metric]
    line, code = run.report({name: summary})
    assert code == 0
    printed = capsys.readouterr().out
    for metric, unit in run.END_TO_END.items():
        assert f"{metric} " in printed and f" {unit}\n" in printed
    latencies = {
        "engine-read": ["query_p50_ms", "query_tail_ms"],
        "engine-write": list(run.LATENCIES),
    }.get(name, [])
    for metric in latencies:
        assert f"  {metric} " in printed and f" {run.LATENCIES[metric]} (" in printed
    assert json.loads(line)["correct"] is True


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_workload_yields_every_per_layer_metric(name):
    untraced = _pass(name)
    tracer = tracing.Tracer()
    with tracer.counters:
        traced = _pass(name, tracer)
    traced["per_layer"] = tracer.metrics()
    traced["trace"] = tracer.document()
    summary = run.summarize(name, [untraced], [untraced["setup_s"]], traced)
    assert set(summary["metrics"]) == set(run.PER_LAYER)
    assert all(unit == run.PER_LAYER[m] for m, (_, unit) in summary["metrics"].items())
    assert summary["failed"] == 0
    values = {m: v for m, (v, _) in summary["metrics"].items()}
    expected_calls = {
        "paper-writeup": "mappings.holds_calls.Mapping",
        "engine-read": "engine.database.run_calls",
        "engine-write": "durability.records_committed",
        "optimize-deep": "optimizer.rewriter.rule_attempts",
    }[name]
    assert values[expected_calls] > 0


def test_wrong_oracle_fails_the_run(capsys):
    result = _pass("paper-writeup", expected={"E-2.2": "wrong", "E-4.14": "wrong"})
    assert result["failed"] == 2 and result["attempted"] == 2
    summary = run.summarize("paper-writeup", [result], [result["setup_s"]])
    line, code = run.report({"paper-writeup": summary})
    assert code != 0
    assert json.loads(line)["correct"] is False
    assert "failed_frac 1.000000" in capsys.readouterr().out


def test_wrong_repeated_query_value_fails_the_check():
    workload = workloads.EngineRead(0, **TINY["engine-read"])
    workload.setup()
    workload.timed()
    # The last query of a plan that ran more than once: a cache hit.
    repeated = [i for i, k in enumerate(workload.draws)
                if workload.draws.count(k) > 1]
    workload.hashes[repeated[-1]] += 1
    workload.check()
    assert list(workload.failures) == [repeated[-1]]


def test_raising_op_counts_as_failed():
    workload = workloads.EngineRead(0, **TINY["engine-read"])
    workload.setup()
    workload.pool[workload.draws[0]] = None
    workload.timed()
    assert workload.failures and len(workload.ops) == workload.queries


def test_expected_tables_cover_every_experiment():
    from repro.experiments.registry import EXPERIMENTS

    text = (workloads.REPO / "EXPERIMENTS.md").read_text()
    assert set(workloads.expected_tables(text)) == set(EXPERIMENTS)


def test_every_source_file_maps_to_one_named_layer():
    files = sorted(tracing.PACKAGE.rglob("*.py"))
    assert files
    used = set()
    for path in files:
        relative = str(path.relative_to(tracing.PACKAGE))
        layer = tracing.layer_of_source(relative)
        assert layer in tracing.PROGRAM_LAYERS, relative
        assert tracing.layer_of(str(path)) == layer
        used.add(layer)
    assert used == set(tracing.PROGRAM_LAYERS)
    assert {f"{layer}.self_s" for layer in tracing.LAYERS} <= set(run.PER_LAYER)
    assert tracing.layer_of(tracing.__file__) == tracing.TRACE_LAYER
    assert tracing.layer_of(workloads.__file__) == tracing.DRIVER_LAYER
    assert tracing.layer_of(os.__file__) is None


def test_counting_wrappers_are_removed():
    import repro.experiments.section3 as section3
    from repro.engine.database import Database
    from repro.genericity.witnesses import find_counterexample
    from repro.mappings.mapping import Mapping
    from repro.optimizer.rules import DEFAULT_RULES

    before = (Mapping.holds, Database.run, Database.insert, os.fsync,
              section3.find_counterexample, DEFAULT_RULES[0].apply)
    counters = tracing.Counters()
    with counters:
        assert Mapping.holds is not before[0]
        assert section3.find_counterexample is not find_counterexample
        _pass("optimize-deep")
    assert counters.counts["optimizer.rewriter.rule_attempts"] > 0
    after = (Mapping.holds, Database.run, Database.insert, os.fsync,
             section3.find_counterexample, DEFAULT_RULES[0].apply)
    assert all(a is b for a, b in zip(before, after))


def test_fsync_time_is_credited_to_its_caller():
    # Inside os.fsync, which is C code, the counting wrapper is the
    # innermost Python frame; the sample belongs to the caller's layer,
    # here this test's (bench.driver).
    counts = collections.defaultdict(int)
    sampler = tracing.Sampler()
    wrapper = tracing._count_builtin(
        counts, "fsync", lambda: sampler._record(sys._getframe(1), 1.0)
    )
    wrapper()
    assert counts["fsync"] == 1
    assert dict(sampler.self_s) == {tracing.DRIVER_LAYER: 1.0}


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((workloads.REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_spans_share_op_ids_under_the_workload_span():
    ops = [("query", 1.0, 1.5, (("optimize", 1.0, 1.2), ("run", 1.2, 1.5))),
           ("insert", 2.0, 2.1, ())]
    spans = tracing.spans(ops, origin=1.0)
    assert spans[0]["name"] == "workload" and spans[0]["end"] == pytest.approx(1.1)
    query = [s for s in spans if s["op"] == 1]
    assert [s["name"] for s in query] == ["query", "optimize", "run"]
    assert query[0]["parent"] == 0
    assert all(s["parent"] == query[0]["id"] for s in query[1:])
    assert [s["parent"] for s in spans if s["op"] == 2] == [0]


def test_timeline_scales_by_the_probes_and_leaves_them_out():
    ref, power = hostspeed.REFERENCE_S, hostspeed.EXPONENT
    # Probes at 0, 1, 2 and 3 s: the first three at host factor 1, the
    # last twice as slow.
    timeline = hostspeed.Timeline(
        [0.0, 1.0, 2.0, 3.0], [ref, 1.0 + ref, 2.0 + ref, 3.0 + 2 * ref]
    )
    assert timeline.factors == pytest.approx([1.0, 1.0, 1.0, 1.5, 2.0])
    assert timeline.host_factor == pytest.approx(1.0)
    # A stretch between two probes; one that spans a probe leaves it out.
    assert timeline.reference(ref, 1.0) == pytest.approx(1.0 - ref)
    assert timeline.reference(0.5, 1.5) == pytest.approx(1.0 - ref)
    assert timeline.wall(0.5, 1.5) == pytest.approx(1.0 - ref)
    # Between probes of factor 1 and 2, and after the slow one.
    assert timeline.reference(2.5, 3.0) == pytest.approx(0.5 / 1.5 ** power)
    assert timeline.wall(2.5, 3.0) == pytest.approx(0.5)
    assert timeline.reference(4.0, 5.0) == pytest.approx(1.0 / 2.0 ** power)
    # Before the first probe, its own factor holds.
    assert timeline.reference(-1.0, 0.0) == pytest.approx(1.0)
    assert timeline.reference(0.0, ref) == 0.0


def test_probe_restores_the_signal_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    probe = hostspeed.HostProbe(period=0.001)
    probe.start()
    deadline = time.perf_counter() + 0.05
    while time.perf_counter() < deadline:
        pass
    probe.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(probe.starts) > 2
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_percentile_reports_samples_beyond():
    assert run.percentile([float(i) for i in range(1, 1001)], 0.99) == (990.0, 10)
    assert run.percentile([5.0], 0.5) == (5.0, 0)
