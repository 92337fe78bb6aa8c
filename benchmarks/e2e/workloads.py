"""The benchmark's four workloads, and the child process that runs one.

Every workload is a closed loop: one caller issues an op, waits for its
reply, then issues the next.  Op counts are fixed, so a run does the
same work on every commit.  Inputs are generated from the seed during
set-up; the program only receives the generated inputs.  After the
timed phase each workload checks every output against an oracle; an op
that raised or disagreed with its oracle is a failed op.

``run.py`` starts this file as a fresh child process per pass::

    python workloads.py WORKLOAD SEED {setup,pass,trace} SPAWNED

``setup`` stops after set-up, ``pass`` runs the timed phase and the
oracle, ``trace`` does the same under :mod:`tracing`.  ``SPAWNED`` is
the parent's ``time.monotonic()`` instant of starting the child, where
set-up begins.  ``setup`` and ``pass`` children run a
:class:`~hostspeed.HostProbe` from their first statement on and report
times in reference seconds; ``trace`` children report wall seconds.
The child prints one JSON object as its last line.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

from hostspeed import HostProbe
from tracing import Tracer, spans

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
WORK = HERE / ".work"

clock = time.perf_counter


class Workload:
    """One workload: ``setup`` makes the inputs, ``timed`` runs the ops,
    ``check`` compares the outputs with the oracle.

    ``timed`` appends ``(kind, start, end, parts)`` to ``self.ops`` per
    op, where ``parts`` are ``(name, start, end)`` sub-spans, and
    records failures in ``self.failures`` keyed by op index.
    """

    name = ""

    def __init__(self) -> None:
        self.ops: list = []
        self.failures: dict[int, str] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def timed(self) -> None:
        raise NotImplementedError

    def check(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release what set-up acquired."""

    def fail(self, index: int, message: str) -> None:
        self.failures.setdefault(index, message)


def _raised(workload: Workload, index: int, start: float, kind: str) -> None:
    """Record an op that raised: it still counts as attempted."""
    workload.ops.append((kind, start, clock(), ()))
    workload.fail(index, traceback.format_exc(limit=3))


def expected_tables(text: str) -> dict[str, str]:
    """The first ``text`` block of each ``## <id> — <title>`` section."""
    tables: dict[str, str] = {}
    lines = text.splitlines()
    current = None
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("## "):
            head, sep, _ = line[3:].partition(" — ")
            current = head if sep else None
        elif line == "```text" and current is not None and current not in tables:
            end = lines.index("```", i + 1)
            tables[current] = "\n".join(lines[i + 1:end])
            i = end
        i += 1
    return tables


class PaperWriteup(Workload):
    """Every registered experiment once, in registry order.

    The experiments seed themselves, so the seed changes nothing here.
    Oracle: ``matches_paper`` holds and the regenerated table is
    byte-identical to its block in EXPERIMENTS.md.
    """

    name = "paper-writeup"

    def __init__(self, seed: int, ids=None, expected: dict | None = None) -> None:
        super().__init__()
        self.ids = ids
        self.expected = expected
        self.results: dict[int, object] = {}

    def setup(self) -> None:
        from repro.experiments.registry import EXPERIMENTS, run

        self.run = run
        self.ids = list(self.ids or EXPERIMENTS)

    def timed(self) -> None:
        run = self.run
        for i, exp_id in enumerate(self.ids):
            start = clock()
            try:
                result = run(exp_id)
            except Exception:
                _raised(self, i, start, "experiment")
                continue
            self.ops.append(("experiment", start, clock(), ()))
            self.results[i] = result

    def check(self) -> None:
        from repro.experiments.report import format_table

        expected = self.expected
        if expected is None:
            expected = expected_tables((REPO / "EXPERIMENTS.md").read_text())
        for i, result in self.results.items():
            exp_id = self.ids[i]
            if not result.matches_paper:
                self.fail(i, f"{exp_id}: does not match the paper: {result.notes}")
            elif format_table(result.columns, result.rows) != expected.get(exp_id):
                self.fail(i, f"{exp_id}: table differs from EXPERIMENTS.md")


def _has_cross_product(plan) -> bool:
    from repro.optimizer.plan import Join, Product

    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, Product) or (isinstance(node, Join) and not node.on):
            return True
        stack.extend(node.children())
    return False


def plan_pool(names, size: int) -> list:
    """The first ``size`` plans of one fixed stream of ``random_plan``
    draws without cross products.

    The stream is seeded with a constant, not the workload seed: which
    plans a seed happens to draw moves the cost of a run by 7% (reads)
    to 3x (writes), more than the changes the engine workloads exist to
    catch.  Plans with a ``Product`` or a ``Join`` on no columns take
    hundreds of milliseconds each and would dominate the mix, so they
    are rejected by their shape instead of by running them.
    """
    from repro.engine.workload import random_plan

    rng = random.Random("engine/plans")
    pool = []
    while len(pool) < size:
        plan = random_plan(rng, names, base_arity=3, depth=3)
        if not _has_cross_product(plan):
            pool.append(plan)
    return pool


def zipf_stream(rng: random.Random, size: int, count: int) -> list[int]:
    """``count`` ranks in ``range(size)`` with Zipf(1.0) skew.

    Each rank occurs its Zipf share of ``count`` times exactly (largest
    remainders round), in an order shuffled by ``rng``: drawing the
    ranks independently moved how often each tail plan ran, and with it
    a run's time, by about 6% between seeds.
    """
    weights = [1.0 / rank for rank in range(1, size + 1)]
    total = sum(weights)
    quotas = [count * w / total for w in weights]
    counts = [int(q) for q in quotas]
    by_remainder = sorted(range(size), key=lambda i: counts[i] - quotas[i])
    for i in by_remainder[: count - sum(counts)]:
        counts[i] += 1
    stream = [i for i in range(size) for _ in range(counts[i])]
    rng.shuffle(stream)
    return stream


class EngineRead(Workload):
    """Optimize-then-run queries with Zipf(1.0) skew over a plan pool
    larger than the plan cache, so hot plans hit and the tail misses
    and evicts.  No writes, no WAL.  The pool is fixed (see
    :func:`plan_pool`), and so is one shuffled order of the queries.  The
    seed draws the database and where in that cyclic order a run
    starts: shuffled afresh per seed, the order moved the number of
    cache misses by 6% between seeds, and a run's time with it; rotated,
    by 1%.

    Oracle: every query's value equals the reference interpreter's value
    for its un-optimized plan.  The database is read-only, so one
    reference run per distinct plan serves all of that plan's queries.
    The timed phase keeps each value's hash, which the value types
    compute when they are built, and the check compares hashes: a wrong
    value passes only on a 64-bit hash collision.  Keeping the values
    themselves would hold the results of every miss and add about
    120 MB to ``peak_rss_mb``.
    """

    name = "engine-read"

    def __init__(self, seed: int, employees=800, students=400, overlap=200,
                 pool=384, queries=8000) -> None:
        super().__init__()
        self.seed = seed
        self.sizes = (employees, students, overlap)
        self.pool_size = pool
        self.queries = queries
        self.hashes: dict[int, int] = {}

    def setup(self) -> None:
        from repro.engine.workload import hr_database
        from repro.optimizer.rewriter import Rewriter

        self.Rewriter = Rewriter
        rng = random.Random(f"{self.name}/{self.seed}")
        self.db = hr_database(rng, *self.sizes)
        self.pool = plan_pool(sorted(self.db.relations), self.pool_size)
        order = zipf_stream(random.Random("engine/order"), self.pool_size, self.queries)
        start = rng.randrange(self.queries)
        self.draws = order[start:] + order[:start]

    def timed(self) -> None:
        db, pool, Rewriter = self.db, self.pool, self.Rewriter
        hashes = self.hashes
        for i, k in enumerate(self.draws):
            start = clock()
            try:
                plan = Rewriter(db.catalog).optimize(pool[k])
                optimized = clock()
                result = db.run(plan)
            except Exception:
                _raised(self, i, start, "query")
                continue
            end = clock()
            self.ops.append(
                ("query", start, end,
                 (("optimize", start, optimized), ("run", optimized, end)))
            )
            hashes[i] = hash(result.value)

    def check(self) -> None:
        from repro.optimizer.plan import execute_reference

        expected: dict[int, int] = {}
        for i, value_hash in self.hashes.items():
            k = self.draws[i]
            if k not in expected:
                reference = execute_reference(self.pool[k], self.db.relations)
                expected[k] = hash(reference.value)
            if value_hash != expected[k]:
                self.fail(i, f"query {i} (plan {k}): value differs from the reference")


def balanced(rng: random.Random, items, count: int) -> list:
    """``count`` draws that use every item equally often (to within
    one), in an order shuffled by ``rng``."""
    out: list = []
    while len(out) < count:
        cycle = list(items)
        rng.shuffle(cycle)
        out.extend(cycle)
    return out[:count]


class EngineWrite(Workload):
    """Queries from a hot set that fits the plan cache, alternating with
    WAL-logged inserts of fresh-key rows, then a recovery.

    The hot set is the 24 hottest plans of ``engine-read``'s fixed pool
    (see :func:`plan_pool`).  The seed draws the database, the order of
    the queries and the relation each insert goes to, each plan and
    each relation being used equally often.

    ``DurabilityManager(fsync=True, checkpoint_every=180)``: the default
    flush policy.  600 inserts make 3 checkpoints after the attach
    checkpoint and leave a 60-record tail for ``recover``.  Each insert
    grows a relation, so the cost of an op rises during a pass: twice
    the ops took three times as long.  The op count is what fits the
    benchmark's total run-time limit.

    Oracle: every 50th query equals the reference interpreter on the
    database as it was then, and the recovered database's digest
    (contents, generation, fingerprints) equals the live one's.
    """

    name = "engine-write"

    def __init__(self, seed: int, employees=800, students=400, overlap=200,
                 hot=24, ops=1200, check_every=50, checkpoint_every=180) -> None:
        super().__init__()
        self.seed = seed
        self.sizes = (employees, students, overlap)
        self.hot = hot
        self.op_count = ops
        self.check_every = check_every
        self.checkpoint_every = checkpoint_every
        self.checks: list = []
        self.directory = WORK / f"{self.name}-{os.getpid()}"
        self.manager = None
        self.recovered = None

    def setup(self) -> None:
        from repro.durability import DurabilityManager, recover
        from repro.engine.workload import hr_database
        from repro.optimizer.rewriter import Rewriter

        self.Rewriter, self.recover = Rewriter, recover
        rng = random.Random(f"{self.name}/{self.seed}")
        self.db = hr_database(rng, *self.sizes)
        names = sorted(self.db.relations)
        self.pool = plan_pool(names, self.hot)
        queries = iter(balanced(rng, range(self.hot), (self.op_count + 1) // 2))
        targets = iter(balanced(rng, names, self.op_count // 2))
        fresh = 10 ** 6
        self.schedule = []
        for i in range(self.op_count):
            if i % 2 == 0:
                self.schedule.append(("query", next(queries)))
                continue
            rows = [
                (ssn, f"person{ssn}", f"dept{ssn % 4}")
                for ssn in range(fresh, fresh + 3)
            ]
            fresh += 3
            self.schedule.append(("insert", (next(targets), rows)))
        shutil.rmtree(self.directory, ignore_errors=True)
        self.manager = DurabilityManager(
            self.directory, fsync=True, checkpoint_every=self.checkpoint_every
        )
        # Attaching to a populated database writes the first checkpoint.
        self.db.durability = self.manager

    def timed(self) -> None:
        db, pool, Rewriter = self.db, self.pool, self.Rewriter
        queries = 0
        for i, (kind, arg) in enumerate(self.schedule):
            start = clock()
            try:
                if kind == "query":
                    plan = Rewriter(db.catalog).optimize(pool[arg])
                    optimized = clock()
                    result = db.run(plan)
                else:
                    db.insert(*arg)
            except Exception:
                _raised(self, i, start, kind)
                continue
            end = clock()
            if kind == "insert":
                self.ops.append(("insert", start, end, ()))
                continue
            self.ops.append(
                ("query", start, end,
                 (("optimize", start, optimized), ("run", optimized, end)))
            )
            if queries % self.check_every == 0:
                self.checks.append((i, pool[arg], result.value, db.snapshot()))
            queries += 1
        start = clock()
        try:
            self.recovered, _report = self.recover(self.directory)
        except Exception:
            _raised(self, len(self.schedule), start, "recover")
            return
        self.ops.append(("recover", start, clock(), ()))

    def check(self) -> None:
        from repro.optimizer.plan import execute_reference

        for i, plan, value, snapshot in self.checks:
            if execute_reference(plan, snapshot).value != value:
                self.fail(i, f"op {i}: query value differs from the reference")
        if self.recovered is not None and digest(self.recovered) != digest(self.db):
            self.fail(len(self.schedule), "recovered database differs from live")

    def close(self) -> None:
        if self.manager is not None:
            self.manager.close()
        shutil.rmtree(self.directory, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run's log is still there


def digest(db) -> tuple:
    """Contents, mutation generation and fingerprints of a database."""
    from repro.engine.serialize import database_to_json

    return (
        json.dumps(database_to_json(db), sort_keys=True),
        db._generation,
        tuple(sorted((name, db.fingerprint(name)) for name in db.relations)),
    )


class OptimizeDeep(Workload):
    """The rewriter on unary ``deep_chain_plan`` chains, four per depth.
    Only the rewriter and plan objects do work.

    The chains are fixed (chain seeds 0 to 3): the cost of rewriting a
    chain moves by up to 20% with its seed, and drawing them from the
    workload seed spread a run's time by 11% across seeds.  The seed
    draws the oracle's relation.  Rewriting time grows about fourfold
    per doubling of depth; two chains of depth 4000 took three quarters
    of a pass and 150 MB, and their time was the least steady, so the
    deepest chains are 2000 deep and there are more of them.

    Oracle: the optimized chain gives the original's value under the
    reference interpreter on a 6-row ``r``.
    """

    name = "optimize-deep"

    def __init__(self, seed: int, depths=(250, 500, 1000, 2000)) -> None:
        super().__init__()
        self.seed = seed
        self.depths = depths
        self.outputs: dict[int, object] = {}

    def setup(self) -> None:
        from repro.engine.workload import deep_chain_plan
        from repro.optimizer.constraints import Catalog
        from repro.optimizer.rewriter import Rewriter
        from repro.types.values import CVSet, Tup

        self.Rewriter, self.Catalog = Rewriter, Catalog
        self.chains = [
            deep_chain_plan(random.Random(f"{self.name}/{s}/{depth}"), "r", depth)
            for depth in self.depths
            for s in range(4)
        ]
        rng = random.Random(f"{self.name}/{self.seed}/r")
        rows: set = set()
        while len(rows) < 6:
            rows.add(Tup((rng.randrange(6), rng.randrange(6))))
        self.relation = CVSet(rows)

    def timed(self) -> None:
        Rewriter, Catalog = self.Rewriter, self.Catalog
        for i, chain in enumerate(self.chains):
            start = clock()
            try:
                self.outputs[i] = Rewriter(Catalog()).optimize(chain)
            except Exception:
                _raised(self, i, start, "optimize")
                continue
            self.ops.append(("optimize", start, clock(), ()))

    def check(self) -> None:
        from repro.optimizer.plan import execute_reference

        db = {"r": self.relation}
        for i, optimized in self.outputs.items():
            before = execute_reference(self.chains[i], db).value
            if execute_reference(optimized, db).value != before:
                self.fail(i, f"chain {i}: optimized value differs")


WORKLOADS = {
    cls.name: cls for cls in (PaperWriteup, EngineRead, EngineWrite, OptimizeDeep)
}


def execute(workload: Workload, tracer: Tracer | None = None,
            probe: HostProbe | None = None, started: float | None = None) -> dict:
    """Set up, run the timed phase, check; return the measurements.

    ``started`` is the :data:`clock` instant set-up began (default: now).
    With a running ``probe``, which this stops after the timed phase,
    ``setup_s``, ``run_s`` and the op latencies are reference seconds
    and ``wall_s`` is the timed phase's wall time less the probes;
    without one, all of them are wall seconds.
    """
    if started is None:
        started = clock()
    try:
        workload.setup()
        ready = clock()
        if tracer is not None:
            tracer.start()
        start = clock()
        try:
            workload.timed()
        finally:
            end = clock()
            if tracer is not None:
                tracer.stop()
            if probe is not None:
                probe.stop()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        workload.check()
    finally:
        workload.close()
    if probe is not None:
        timeline = probe.timeline()
        elapsed, wall_s = timeline.reference, timeline.wall(start, end)
        host_factor = timeline.host_factor
    else:
        elapsed, wall_s, host_factor = (lambda a, b: b - a), end - start, None
    latencies: dict[str, list[float]] = {}
    for kind, op_start, op_end, _parts in workload.ops:
        latencies.setdefault(kind, []).append(elapsed(op_start, op_end))
    return {
        "setup_s": elapsed(started, ready),
        "run_s": elapsed(start, end),
        "wall_s": wall_s,
        "host_factor": host_factor,
        "rss_mb": rss_mb,
        "attempted": len(workload.ops),
        "failed": len(workload.failures),
        "failures": [workload.failures[i] for i in sorted(workload.failures)][:5],
        "latencies": latencies,
        "origin": start,
    }


def main(argv: list[str]) -> int:
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    started = float(argv[3]) + clock() - time.monotonic()
    if mode == "trace":
        workload = WORKLOADS[name](seed)
        tracer = Tracer()
        with tracer.counters:
            result = execute(workload, tracer, started=started)
        result["per_layer"] = tracer.metrics()
        result["trace"] = dict(
            tracer.document(), spans=spans(workload.ops, result["origin"])
        )
        print(json.dumps(result))
        return 0
    probe = HostProbe()
    probe.start()
    workload = WORKLOADS[name](seed)
    if mode == "pass":
        print(json.dumps(execute(workload, probe=probe, started=started)))
        return 0
    try:
        workload.setup()
        ready = clock()
    finally:
        probe.stop()
        workload.close()
    print(json.dumps({"setup_s": probe.timeline().reference(started, ready)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
