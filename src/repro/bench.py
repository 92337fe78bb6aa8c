"""Benchmark suites: executor comparison + parallel-harness scaling.

Importable as :mod:`repro.bench` (``python -m repro bench``) with
``benchmarks/run_bench.py`` kept as a thin path-setting shim.  Writes
``BENCH_PR13.json`` at the repo root by default.

Measurements:

* **plan execution** — reference interpreter vs compiled (cold,
  memoized program) vs ``Database.run``'s default path vs warm result
  cache, on the HR workload at growing sizes;
* **deep pipeline / hash join** — the same executors on a 6-operator
  pipeline and a multi-column join;
* **cache hit ratio** — the invariance-style sweep access pattern;
* **parallel sweep** — the genericity classification grid, serial vs
  ``--jobs N`` (:mod:`repro.parallel`), with a byte-identity check of
  the rendered output;
* **parallel fuzz** — differential fuzz seeds, serial vs sharded, with
  a report-identity check;
* **durability** — the write-ahead-log tax and the recovery path:
  per-mutation insert latency with the WAL attached (append + commit
  + apply) vs plain in-memory inserts, on-demand checkpoint cost, and
  ``recovery_s`` — rebuilding the database from checkpoint + committed
  log suffix, digest-compared against the live database it replays;
* **observability** — tracer overhead when enabled (the disabled path
  is the untraced code path every other suite measures), plus cold
  per-operator EXPLAIN breakdowns of the HR plan in every mode;
* **E-PERF** — the pytest micro-benchmark tier, unless ``--skip-eperf``
  (skipped automatically when ``benchmarks/`` is absent, e.g. from an
  installed package).

Honest-numbers note: the parallel suites record ``cpu_count`` next to
the measured speedup — on a single-core host, process sharding cannot
beat serial and the measured value says so; the byte-identity flags are
the correctness claim, the speedup is hardware-dependent.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from .engine.exec import PlanCache, execute_compiled
from .engine.fuzz import run_fuzz
from .engine.workload import hr_database, random_database, random_plan
from .optimizer.plan import (
    Difference,
    Join,
    MapNode,
    Project,
    Scan,
    Select,
    Union,
    execute_reference,
)
from .optimizer.rewriter import Rewriter
from .parallel import default_jobs, render_verdicts, sweep_invariance

__all__ = ["main"]

REPO_ROOT = Path(__file__).resolve().parents[2]


#: Repeats per timed row; recorded in the JSON so the regression gate
#: knows what it is comparing.
_REPEATS = 5


def _time(fn, repeats: int = _REPEATS) -> float:
    """Best (min) per-call wall-clock seconds of ``fn``.

    Min, not median: these are deterministic CPU-bound bodies, so the
    minimum is the best estimate of the true cost and the statistic
    least contaminated by scheduler/GC noise — medians were jittery
    enough to trip ``compare_bench.py``'s +20% gate on unchanged code.

    Sub-millisecond bodies are looped inside each sample so a single
    scheduler tick cannot dominate the measurement (single-digit
    microsecond calls were showing ±20% run-to-run swings otherwise).
    """
    start = time.perf_counter()
    fn()
    once = time.perf_counter() - start
    inner = max(1, min(64, int(1e-3 / once) if once > 0 else 64))
    best = once if inner == 1 else float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - start) / inner)
    return best


def bench_plan_execution(sizes=(100, 400, 1600)) -> dict:
    """HR workload: reference vs compiled (cold) vs the default
    ``Database.run`` path vs warm result cache.

    "Cold" means result-cache-cold throughout.  The compiled row times
    repeated cold execution — the artifact is memoized in the plan
    cache's side table after the first run (that is the mode's
    contract; recompiling per call would be measuring ``exec`` speed,
    not the executor)."""
    rows = []
    for size in sizes:
        db = hr_database(random.Random(4), employees=size,
                         students=size // 2, overlap=size // 4)
        plan = Project((0,), Difference(Scan("employees"),
                                        Scan("students")))
        reference = execute_reference(plan, db.relations)
        reference_s = _time(lambda: execute_reference(plan, db.relations))
        compiled = db.run(plan, mode="compiled", use_cache=False)
        assert compiled.value == reference.value
        assert compiled.work == reference.work
        compiled_s = _time(
            lambda: db.run(plan, mode="compiled", use_cache=False)
        )
        # Disabled-injection robustness path: the default cold run,
        # routed through Database.run's degradation chain with no
        # injector attached — what the fault hooks cost when off.
        chaos = db.run(plan, use_cache=False)
        assert chaos.value == reference.value
        chaos_s = _time(lambda: db.run(plan, use_cache=False))
        db.run(plan)  # warm
        warm_s = _time(lambda: db.run(plan))
        check = db.run(plan)
        assert check.value == reference.value
        rows.append({
            "size": size,
            "repeats": _REPEATS,
            "reference_s": reference_s,
            "compiled_cold_s": compiled_s,
            "chaos_overhead_s": chaos_s,
            "cached_warm_s": warm_s,
            "compiled_speedup": reference_s / max(compiled_s, 1e-9),
            "warm_speedup": reference_s / max(warm_s, 1e-9),
        })
    return {"name": "hr_plan_execution", "rows": rows}


def bench_deep_pipeline(sizes=(400, 1600)) -> dict:
    """A 6-operator pipeline: interpreter walk vs one compiled function."""
    rows = []
    for size in sizes:
        db = hr_database(random.Random(8), employees=size,
                         students=size // 2, overlap=size // 4)
        plan = Project(
            (0,),
            Select(
                "always", lambda t: True,
                MapNode(
                    "swap", lambda t: t.project((2, 1, 0)),
                    Select(
                        "always", lambda t: True,
                        Union(Scan("employees"), Scan("students")),
                    ),
                ),
            ),
        )
        reference_s = _time(lambda: execute_reference(plan, db.relations))
        store = PlanCache()
        execute_compiled(plan, db.relations, compile_store=store,
                         relation_stats=db.relation_stats)
        compiled_s = _time(
            lambda: execute_compiled(plan, db.relations,
                                     compile_store=store,
                                     relation_stats=db.relation_stats)
        )
        rows.append({
            "size": size,
            "repeats": _REPEATS,
            "reference_s": reference_s,
            "compiled_cold_s": compiled_s,
            "compiled_speedup": reference_s / max(compiled_s, 1e-9),
        })
    return {"name": "deep_pipeline", "rows": rows}


def bench_hash_join(sizes=(200, 800, 2000)) -> dict:
    """Join build/probe micro-benchmark, multi-column ``on``."""
    rows = []
    for size in sizes:
        rng = random.Random(9)
        db = random_database(rng, ("a", "b"), arity=2,
                             domain_size=max(size // 4, 4), max_rows=size)
        plan = Join(((0, 0), (1, 1)), Scan("a"), Scan("b"))
        reference_s = _time(lambda: execute_reference(plan, db))
        store = PlanCache()
        execute_compiled(plan, db, compile_store=store)
        compiled_s = _time(
            lambda: execute_compiled(plan, db, compile_store=store)
        )
        rows.append({
            "size": size,
            "repeats": _REPEATS,
            "reference_s": reference_s,
            "compiled_s": compiled_s,
            "compiled_speedup": reference_s / max(compiled_s, 1e-9),
        })
    return {"name": "hash_join_build_probe", "rows": rows}


def bench_durability(sizes=(100, 400, 1600)) -> dict:
    """WAL write tax + checkpoint cost + ``recovery_s``.

    ``fsync`` is disabled so the numbers measure the engine (record
    encoding, CRC, commit protocol, replay), not the disk; the write
    ordering and formats are identical either way, and the recorded
    flag says so.  The recovered database is digest-compared (contents,
    generation, fingerprints) against the live one it replays — the
    latency claim never outruns the correctness claim."""
    import itertools
    import shutil
    import tempfile

    from .durability import DurabilityManager, recover
    from .engine.serialize import database_to_json

    def digest(db):
        return (
            json.dumps(database_to_json(db), sort_keys=True),
            db._generation,
            tuple(sorted((n, db.fingerprint(n)) for n in db.relations)),
        )

    from .engine.database import Database

    rows_out = []
    for size in sizes:
        workdir = tempfile.mkdtemp(prefix="bench-durability-")
        try:
            state = os.path.join(workdir, "state")
            live = Database()
            live.durability = DurabilityManager(state, fsync=False)
            live.create("r", 2)
            live.insert("r", [(i, i % 7) for i in range(size)])
            # Checkpoint the bulk load; the replayed tail is then one
            # mutation per row — the recovery-dominant shape.
            live.durability.checkpoint(live)
            tail = itertools.count(size)
            for _ in range(size // 4):
                i = next(tail)
                live.insert("r", [(i, i % 7)])

            counter = itertools.count(10 * size)
            wal_insert_s = _time(
                lambda: live.insert("r", [(next(counter), 0)])
            )
            plain = Database()
            plain.create("r", 2)
            plain.insert("r", [(i, i % 7) for i in range(size)])
            plain_counter = itertools.count(10 * size)
            plain_insert_s = _time(
                lambda: plain.insert("r", [(next(plain_counter), 0)])
            )
            checkpoint_s = _time(lambda: live.durability.checkpoint(live))

            # Rebuild a recovery-shaped directory: snapshot of the bulk
            # load, WAL tail of size//4 committed single-row inserts.
            recovery_state = os.path.join(workdir, "recovery")
            fresh = Database()
            fresh.durability = DurabilityManager(recovery_state,
                                                 fsync=False)
            fresh.create("r", 2)
            fresh.insert("r", [(i, i % 7) for i in range(size)])
            fresh.durability.checkpoint(fresh)
            for j in range(size // 4):
                fresh.insert("r", [(size + j, j % 7)])
            fresh.durability.close()

            recovered, report = recover(recovery_state)
            assert digest(recovered) == digest(fresh)
            recovery_s = _time(lambda: recover(recovery_state))
            rows_out.append({
                "size": size,
                "repeats": _REPEATS,
                "fsync": False,
                "wal_insert_s": wal_insert_s,
                "plain_insert_s": plain_insert_s,
                "wal_overhead":
                    wal_insert_s / max(plain_insert_s, 1e-9),
                "checkpoint_s": checkpoint_s,
                "recovery_s": recovery_s,
                "replayed": report.replayed,
                "byte_identical": True,  # asserted above, recorded here
            })
            live.durability.close()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return {"name": "durability", "rows": rows_out}


def bench_cache_invariance_sweep(repetitions: int = 5) -> dict:
    """The invariance/verification access pattern: a fixed plan set
    re-executed over the same database, many times.

    The first pass is cold (misses + populate); later passes should hit.
    Reported hit rate covers the warm phase, plus the overall rate."""
    db = hr_database(random.Random(12), employees=400, students=200,
                     overlap=50)
    rewriter = Rewriter(db.catalog)
    base_plans = [
        Project((0,), Union(Scan("employees"), Scan("students"))),
        Project((0,), Difference(Scan("employees"), Scan("students"))),
        Project((0,), Difference(Scan("employees"), Scan("contractors"))),
        Join(((0, 0),), Scan("employees"), Scan("students")),
        Project((0, 2), Select("always", lambda t: True,
                               Union(Scan("employees"),
                                     Scan("contractors")))),
    ]
    plans = base_plans + [rewriter.optimize(p) for p in base_plans]

    def sweep():
        for plan in plans:
            db.run(plan)

    sweep()  # cold pass
    cold = db.plan_cache.stats()
    db.plan_cache.reset_stats()
    warm_start = time.perf_counter()
    for _ in range(repetitions - 1):
        sweep()
    warm_elapsed = time.perf_counter() - warm_start
    warm = db.plan_cache.stats()
    return {
        "name": "cache_invariance_sweep",
        "plans": len(plans),
        "repetitions": repetitions,
        "cold": cold,
        "warm": warm,
        "warm_hit_rate": warm["hit_rate"],
        "warm_elapsed_s": warm_elapsed,
    }


def bench_equivalence_spotcheck(pairs: int = 50) -> dict:
    """Random-plan equivalence (the property-test workload), timed."""
    rng = random.Random(77)
    start = time.perf_counter()
    for _ in range(pairs):
        db = random_database(rng, ("r", "s", "t"), arity=2, domain_size=5,
                             max_rows=10)
        plan = random_plan(rng, ("r", "s", "t"), depth=3)
        assert (
            execute_compiled(plan, db).value
            == execute_reference(plan, db).value
        )
    return {
        "name": "random_plan_equivalence",
        "pairs": pairs,
        "elapsed_s": time.perf_counter() - start,
    }


def bench_parallel_sweep(jobs: int, quick: bool = False) -> dict:
    """Genericity classification grid: serial vs sharded, byte-compared."""
    from .cli import OPERATION_CATALOG

    operations = (
        ["projection", "eq_adom"] if quick else list(OPERATION_CATALOG)
    )
    trials = 6 if quick else 25

    start = time.perf_counter()
    serial = sweep_invariance(operations, trials=trials, jobs=1)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = sweep_invariance(operations, trials=trials, jobs=jobs)
    parallel_s = time.perf_counter() - start

    return {
        "name": "parallel_invariance_sweep",
        "operations": len(operations),
        "cells": len(serial),
        "trials": trials,
        "jobs": jobs,
        "cpu_count": os.cpu_count(),
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "parallel_speedup": serial_s / max(parallel_s, 1e-9),
        "byte_identical": render_verdicts(serial) == render_verdicts(parallel),
    }


def bench_parallel_fuzz(jobs: int, quick: bool = False) -> dict:
    """Differential fuzz seeds: serial vs sharded, report-compared."""
    seeds = 12 if quick else 60

    start = time.perf_counter()
    serial = run_fuzz(seeds, base_seed=0)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = run_fuzz(seeds, base_seed=0, jobs=jobs)
    parallel_s = time.perf_counter() - start

    return {
        "name": "parallel_fuzz",
        "seeds": seeds,
        "jobs": jobs,
        "cpu_count": os.cpu_count(),
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "parallel_speedup": serial_s / max(parallel_s, 1e-9),
        "serial_ok": serial.ok,
        "identical_report": serial.summary() == parallel.summary(),
    }


def bench_observability(size: int = 800) -> dict:
    """Tracer overhead + per-operator EXPLAIN breakdowns.

    Two claims, measured: the *disabled* path (``tracer=None``) is the
    untraced code path — its cost shows up in every other suite, gated
    by ``compare_bench.py`` — and the *enabled* path costs a bounded,
    reported overhead.  The per-operator breakdowns are cold uncached
    runs of the HR plan in both executor modes (deterministic modulo
    wall time, so the JSON doubles as an EXPLAIN fixture)."""
    from .obs import MODES, Tracer, explain

    db = hr_database(random.Random(4), employees=size,
                     students=size // 2, overlap=size // 4)
    plan = Project((0,), Difference(Scan("employees"), Scan("students")))
    untraced_s = _time(lambda: db.run(plan, use_cache=False))
    traced_s = _time(
        lambda: db.run(plan, use_cache=False, tracer=Tracer())
    )
    breakdowns = {
        mode: explain(plan, db, mode=mode, use_cache=False).to_dict(
            wall=False
        )
        for mode in MODES
    }
    return {
        "name": "observability",
        "size": size,
        "untraced_compiled_s": untraced_s,
        "traced_compiled_s": traced_s,
        "tracer_overhead": traced_s / max(untraced_s, 1e-9),
        "per_operator": breakdowns,
    }


def run_eperf() -> dict:
    """The E-PERF sweep (bench_framework.py), one pass via pytest."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest",
         str(REPO_ROOT / "benchmarks" / "bench_framework.py"),
         "-q", "--benchmark-disable", "-p", "no:cacheprovider"],
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"),
             "PATH": "/usr/bin:/bin:/usr/local/bin"},
        capture_output=True,
        text=True,
    )
    return {
        "name": "eperf_sweep",
        "passed": proc.returncode == 0,
        "elapsed_s": time.perf_counter() - start,
        "tail": proc.stdout.strip().splitlines()[-1:] if proc.stdout else [],
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="repro bench")
    parser.add_argument("--skip-eperf", action="store_true",
                        help="skip the pytest E-PERF sweep")
    parser.add_argument("--quick", action="store_true",
                        help="small sizes / few repeats, for CI smoke")
    parser.add_argument("--jobs", type=int, default=0,
                        help="workers for the parallel suites "
                             "(0 = all cores)")
    parser.add_argument("--out", default="BENCH_PR13.json")
    args = parser.parse_args(argv)
    jobs = args.jobs if args.jobs > 0 else default_jobs()

    sizes = (100, 400) if args.quick else (100, 400, 1600)
    results = {
        "pr": 13,
        "title": "two executors: compiled and reference",
        "cpu_count": os.cpu_count(),
        "benchmarks": [],
    }
    suites = [
        lambda: bench_plan_execution(sizes),
        lambda: bench_deep_pipeline(sizes[-2:]),
        lambda: bench_hash_join((200, 800) if args.quick
                                else (200, 800, 2000)),
        lambda: bench_durability(sizes),
        bench_cache_invariance_sweep,
        lambda: bench_equivalence_spotcheck(10 if args.quick else 50),
        lambda: bench_parallel_sweep(jobs, quick=args.quick),
        lambda: bench_parallel_fuzz(jobs, quick=args.quick),
        lambda: bench_observability(400 if args.quick else 800),
    ]
    for bench in suites:
        result = bench()
        results["benchmarks"].append(result)
        print(f"[bench] {result['name']}: done")
    has_eperf = (REPO_ROOT / "benchmarks" / "bench_framework.py").exists()
    if not args.skip_eperf and has_eperf:
        result = run_eperf()
        results["benchmarks"].append(result)
        print(f"[bench] eperf_sweep: passed={result['passed']}")

    hr_rows = results["benchmarks"][0]["rows"]
    largest = hr_rows[-1]
    sweep = next(b for b in results["benchmarks"]
                 if b["name"] == "cache_invariance_sweep")
    psweep = next(b for b in results["benchmarks"]
                  if b["name"] == "parallel_invariance_sweep")
    pfuzz = next(b for b in results["benchmarks"]
                 if b["name"] == "parallel_fuzz")
    obs = next(b for b in results["benchmarks"]
               if b["name"] == "observability")
    durability = next(b for b in results["benchmarks"]
                      if b["name"] == "durability")
    durability_largest = durability["rows"][-1]
    results["acceptance"] = {
        "tracer_overhead_when_enabled": obs["tracer_overhead"],
        "hr_largest_size": largest["size"],
        "hr_warm_speedup_vs_reference": largest["warm_speedup"],
        "hr_compiled_cold_speedup_vs_reference":
            largest["compiled_speedup"],
        # The default ``Database.run`` cold path against the faster of
        # the two executors called directly.
        "default_within_10pct_of_best": all(
            row["chaos_overhead_s"] <= 1.1 * min(
                row["reference_s"], row["compiled_cold_s"],
            )
            for row in hr_rows
        ),
        "warm_cache_hit_rate": sweep["warm_hit_rate"],
        "durability_largest_size": durability_largest["size"],
        "durability_wal_insert_overhead_vs_plain":
            durability_largest["wal_overhead"],
        "durability_recovery_s": durability_largest["recovery_s"],
        "durability_byte_identical": all(
            row["byte_identical"] for row in durability["rows"]
        ),
        "parallel_sweep_jobs": psweep["jobs"],
        "parallel_sweep_speedup": psweep["parallel_speedup"],
        "parallel_sweep_byte_identical": psweep["byte_identical"],
        "parallel_fuzz_identical_report": pfuzz["identical_report"],
        "cpu_count": os.cpu_count(),
    }
    out = Path(args.out)
    out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out}")
    print(json.dumps(results["acceptance"], indent=2))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
