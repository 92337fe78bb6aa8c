"""End-to-end benchmark of record for this repository.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed S]
                                  [--seconds N] [--trace 0|1|OUT.json]

Runs each workload pass in a fresh child process (``workloads.py``)
with ``PYTHONHASHSEED=0`` and the checkout's ``src`` on the path, one
child at a time.  Passes repeat until their timed phases add up to
``--seconds`` of wall time, which runners of ``BENCHMARK.json`` set to
its ``run_seconds``: a workload whose pass got faster than that runs
more passes and reports their median.  Set-up is sampled in every pass
and in extra set-up-only children.  Times are reference seconds: wall
time corrected for the shared host's speed (``hostspeed.py``).  Prints
every metric by name with its unit, including the op latencies of
every run, then, as the last line, one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exits 1 when any op failed
its oracle, 2 when a child could not run.

``--trace 0`` (the default) reports the end-to-end metrics.  Any other
value adds one traced child and reports the per-layer metrics instead;
a value other than ``1`` is a path the trace (layer tree, counts and
driver spans) is written to.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import HOLDS_CLASSES

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"
CHILD = HERE / "workloads.py"

WORKLOADS = ("paper-writeup", "engine-read", "engine-write", "optimize-deep")
#: Set-up time is the median over this many set-ups: those of the
#: passes, then fresh set-up-only children for the rest.
SETUP_SAMPLES = 5

#: name -> unit.  Every workload reports every one of these.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: name -> unit of the op latencies.  Only some workloads have each op,
#: so they cannot be end-to-end metrics, which every workload reports
#: and which are never 0.  Every run prints the ones its workload has;
#: ``--trace`` reports all of them as ``bench.driver.<name>``.  A
#: ``tail`` is the highest of :data:`TAIL_PERCENTILES` with at least
#: ten samples beyond it.
LATENCIES = {
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "insert_p50_ms": "ms",
    "insert_tail_ms": "ms",
    "recover_s": "s",
}
TAIL_PERCENTILES = (99, 98, 95, 90)

_OTHER_LAYERS = (
    "experiments", "listset", "obs", "parallel", "robustness", "cli",
)
#: name -> unit, from the traced run except the ``bench.driver`` metrics
#: other than ``self_s`` and the overhead, which come from its untraced
#: passes.
PER_LAYER = {
    "types.self_s": "s",
    "mappings.self_s": "s",
    "mappings.incl_s": "s",
    **{f"mappings.holds_calls.{cls}": "count" for cls in HOLDS_CLASSES},
    "genericity.self_s": "s",
    "genericity.incl_s": "s",
    "genericity.check_invariance_calls": "count",
    "genericity.find_counterexample_calls": "count",
    "genericity.exhaustive_check_calls": "count",
    "lambda2.self_s": "s",
    "lambda2.evaluate_calls": "count",
    "algebra.self_s": "s",
    "optimizer.rewriter.self_s": "s",
    "optimizer.rewriter.optimize_calls": "count",
    "optimizer.rewriter.rule_attempts": "count",
    "optimizer.rewriter.rule_fires": "count",
    "optimizer.plan.self_s": "s",
    "engine.exec.self_s": "s",
    "engine.exec.work": "count",
    "engine.cache.self_s": "s",
    "engine.cache.hits": "count",
    "engine.cache.misses": "count",
    "engine.cache.evictions": "count",
    "engine.cache.invalidations": "count",
    "engine.cache.maintained": "count",
    "engine.cache.maintain_fallback": "count",
    "engine.cache.hit_rate": "ratio",
    "engine.database.self_s": "s",
    "engine.database.run_calls": "count",
    "engine.database.insert_calls": "count",
    "durability.self_s": "s",
    "durability.wal_bytes": "bytes",
    "durability.records_committed": "count",
    "durability.fsync_calls": "count",
    "durability.records_replayed": "count",
    **{f"{layer}.self_s": "s" for layer in _OTHER_LAYERS},
    "bench.driver.self_s": "s",
    **{f"bench.driver.{name}": unit for name, unit in LATENCIES.items()},
    "bench.driver.wall_run_s": "s",
    "bench.driver.host_factor": "ratio",
    "bench.trace.self_s": "s",
    "bench.trace.named_frac": "ratio",
    "bench.trace.overhead": "ratio",
}


class ChildError(RuntimeError):
    """A child process exited abnormally."""


def spawn(workload: str, seed: int, mode: str) -> dict:
    """Run one fresh child and return its JSON result.

    The child's ``setup_s`` runs from this call to its first timed op.
    """
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, str(CHILD), workload, str(seed), mode,
         repr(time.monotonic())],
        env=env, cwd=REPO, capture_output=True, text=True,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildError(
            f"{workload} {mode} child exited {proc.returncode}:\n"
            + proc.stderr[-2000:]
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(samples: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def measure(workload: str, seed: int, seconds: float) -> list[dict]:
    """Untraced passes until their timed phases reach ``seconds`` of
    wall time."""
    passes = [spawn(workload, seed, "pass")]
    while sum(p["wall_s"] for p in passes) < seconds:
        passes.append(spawn(workload, seed, "pass"))
    return passes


def end_to_end(passes: list[dict], setups: list[float]) -> dict[str, float]:
    """The end-to-end metrics: medians over passes and set-ups."""
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(p["run_s"] for p in passes),
        "ops_per_s": statistics.median(p["attempted"] / p["run_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }


def op_latencies(passes: list[dict]) -> dict[str, tuple[float, str]]:
    """The :data:`LATENCIES` of the op kinds the workload has, pooled
    over passes: name -> (value, how it was taken)."""
    pooled: dict[str, list[float]] = {}
    for p in passes:
        for kind, values in p["latencies"].items():
            pooled.setdefault(kind, []).extend(values)
    out = {}
    for kind in ("query", "insert"):
        samples = pooled.get(kind)
        if not samples:
            continue
        tail = next(
            (q for q in TAIL_PERCENTILES if percentile(samples, q / 100)[1] >= 10),
            50,
        )
        for label, q in (("p50", 50), ("tail", tail)):
            value, beyond = percentile(samples, q / 100)
            out[f"{kind}_{label}_ms"] = (
                value * 1e3, f"p{q}, n={len(samples)}, {beyond} beyond"
            )
    if "recover" in pooled:
        recover = pooled["recover"]
        out["recover_s"] = (statistics.median(recover), f"median, n={len(recover)}")
    return out


def per_layer(traced: dict, passes: list[dict]) -> dict[str, float]:
    """The per-layer metrics: the traced child's, plus the op latencies,
    wall time, host factor and tracing overhead from the untraced
    passes."""
    values = dict(traced["per_layer"])
    for name, (value, _how) in op_latencies(passes).items():
        values[f"bench.driver.{name}"] = value
    wall = statistics.median(p["wall_s"] for p in passes)
    values["bench.driver.wall_run_s"] = wall
    values["bench.driver.host_factor"] = statistics.median(
        p["host_factor"] for p in passes
    )
    # The traced child runs without the probe: compare wall times.
    values["bench.trace.overhead"] = traced["wall_s"] / wall
    return {name: values.get(name, 0) for name in PER_LAYER}


def summarize(workload: str, passes: list[dict], setups: list[float],
              traced: dict | None = None) -> dict:
    """Metrics, failure counts and report lines of one workload."""
    children = passes + ([traced] if traced is not None else [])
    lines = [
        f"{workload}: {len(passes)} pass(es), wall time "
        + ", ".join(f"{p['wall_s']:.3f}" for p in passes) + " s, host factor "
        + ", ".join(f"{p['host_factor']:.3f}" for p in passes)
    ]
    for name, (value, how) in op_latencies(passes).items():
        lines.append(f"  {name} {value} {LATENCIES[name]} ({how})")
    if traced is None:
        values, units = end_to_end(passes, setups), END_TO_END
    else:
        values, units = per_layer(traced, passes), PER_LAYER
        lines.append(
            f"  traced: {traced['per_layer']['bench.trace.samples']} samples, "
            f"wall time {traced['wall_s']:.3f} s traced"
        )
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    lines.append(f"  failed_frac {failed / attempted:.6f} ({failed}/{attempted})")
    for c in children:
        lines.extend(f"  FAILED {message.strip()}" for message in c["failures"])
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: (values[name], unit) for name, unit in units.items()},
        "lines": lines,
        "trace": dict(traced["trace"], per_layer=values) if traced else None,
    }


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    passes = measure(workload, seed, seconds)
    if traced:
        return summarize(workload, passes, [], spawn(workload, seed, "trace"))
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, "setup")["setup_s"])
    return summarize(workload, passes, setups)


def report(results: dict[str, dict]) -> tuple[str, int]:
    """Print every metric by name and unit; return the result line and
    the exit code (1 when any op failed)."""
    single = len(results) == 1
    metrics = {}
    for workload, result in results.items():
        for line in result["lines"]:
            print(line)
        for name, (value, unit) in result["metrics"].items():
            print(f"  {name} {value} {unit}")
            key = name if single else f"{workload}/{name}"
            metrics[key] = {"value": value, "unit": unit}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    line = json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    })
    return line, 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", default="0")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    traced = args.trace != "0"
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    try:
        results = {
            name: run_workload(name, args.seed, args.seconds, traced)
            for name in workloads
        }
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.trace not in ("0", "1"):
        with open(args.trace, "w") as handle:
            json.dump({name: r["trace"] for name, r in results.items()}, handle)
    line, code = report(results)
    print(line)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
