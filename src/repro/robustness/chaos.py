"""Chaos harness: the differential fuzz matrix under injected faults.

Each seed builds a live :class:`~repro.engine.database.Database`,
draws per-site fault rates from its seeded rng, attaches a
:class:`~repro.robustness.faults.FaultInjector`, and runs random plans
through both executor modes — compiled and reference — plus
warm-cache repeats and post-mutation re-runs.  The oracle is
``Database.run_reference``, which sits outside the fault surface (no
cache, no compiler, no injection hooks), so its answer is always the
fault-free truth.  Two invariants, checked per execution:

* **zero semantic divergences** — whatever faults fired, the answer the
  engine returns (possibly after degrading down the executor chain)
  has the reference's exact value, work, and per-node ledger;
* **zero unhandled escapes** — no injected fault propagates out of
  ``Database.run``; the degradation chain absorbs every one.

Every ``crash_every`` seeds the harness also runs a worker-crash
scenario: :func:`~repro.parallel.parallel_map` under a seeded
:class:`~repro.robustness.faults.WorkerCrash` hook, asserting the
merged output is byte-identical to the serial path both through the
bounded retry and through the in-parent serial fallback.

Every seed additionally plays a **recovery** scenario against the
durability subsystem (:mod:`repro.durability`): a scripted mutation
sequence runs through a WAL-attached database (under drawn
``durability`` fault rates — torn appends, silent bit flips, failed
fsyncs, crashes between commit and apply), then the resulting log is
crash-truncated at *every record boundary* plus a sampled set of
intra-record byte offsets, and each truncation is recovered and
checked against the golden prefixes: a recovered database must be
content-, fingerprint- and generation-identical to one that applied
some prefix of the committed mutations in-process.  A deliberate
mid-record bit flip is recovered the same way — the CRC must stop the
replay at the corruption, still yielding a committed prefix.

Determinism: everything — database contents, plans, fault rates, which
draws fire — derives from ``(base_seed, seed)``, so a chaos failure
always reproduces under the same arguments.

CLI: ``python -m repro chaos --seeds N`` (see :mod:`repro.cli`).
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass, field

from ..durability import (
    WAL_NAME,
    DurabilityManager,
    database_digest,
    recover,
)
from ..engine.database import Database
from ..engine.fuzz import _describe_mismatch
from ..engine.workload import derive_rng, random_database, random_plan
from ..obs.metrics import REGISTRY
from ..parallel import parallel_map
from ..types.values import CVSet, Tup
from .faults import FaultInjector, FaultPlan, InjectedFault, WorkerCrash

__all__ = ["ChaosReport", "run_chaos"]

_NAMES = ("r", "s", "t")
_MODES = ("compiled", "reference")

#: Per-site rate menu each seed draws from.  Zero keeps the disabled
#: path honest; 1.0 forces full-chain degradation down to the
#: reference; the middle rates exercise partial fallbacks and
#: corruption-amid-hits.
_RATES = (0.0, 0.1, 0.35, 1.0)


@dataclass(frozen=True)
class ChaosFailure:
    """One broken invariant: a semantic divergence or an escape."""

    seed: int
    kind: str  # "divergence" | "escape"
    mode: str
    detail: str

    def __str__(self) -> str:
        return f"seed={self.seed} mode={self.mode} [{self.kind}]: {self.detail}"


@dataclass
class ChaosReport:
    """Aggregate outcome of a chaos run."""

    seeds: int = 0
    checks: int = 0
    injected: dict = field(default_factory=dict)
    degradations: int = 0
    corruptions_caught: int = 0
    crash_scenarios: int = 0
    recovery_scenarios: int = 0
    recovery_points: int = 0
    divergences: list = field(default_factory=list)
    escapes: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences and not self.escapes

    def summary(self) -> str:
        fired = ", ".join(
            f"{site}={count}" for site, count in sorted(self.injected.items())
        ) or "none"
        lines = [
            f"chaos: {self.seeds} seeds, {self.checks} checks, "
            f"{self.crash_scenarios} worker-crash scenarios",
            f"  faults injected: {fired}",
            f"  degradations: {self.degradations}, "
            f"cache corruptions caught: {self.corruptions_caught}",
            f"  recovery: {self.recovery_scenarios} scenario(s), "
            f"{self.recovery_points} crash point(s) recovered",
        ]
        if self.ok:
            lines.append("  zero semantic divergences, zero escapes")
        else:
            failures = self.divergences + self.escapes
            lines.append(
                f"  {len(self.divergences)} DIVERGENCE(S), "
                f"{len(self.escapes)} ESCAPE(S):"
            )
            for f in failures[:20]:
                lines.append(f"    {f}")
            if len(failures) > 20:
                lines.append(f"    ... and {len(failures) - 20} more")
        return "\n".join(lines)


def _build_database(rng) -> Database:
    """A populated Database (not a bare mapping — chaos must exercise
    the cache, the stats memos, and the degradation path in ``run``)."""
    db = Database(cache_capacity=32)
    contents = random_database(rng, _NAMES)
    for name in _NAMES:
        db.create(name, 2)
        db.insert(name, [tuple(t) for t in contents[name]])
    return db


def _check_seed(report: ChaosReport, base_seed: int, seed: int) -> None:
    rng = derive_rng("chaos", base_seed, seed)
    db = _build_database(rng)
    plans = [
        random_plan(rng, _NAMES, depth=rng.randint(2, 4))
        for _ in range(rng.randint(1, 3))
    ]
    fault_plan = FaultPlan(
        seed=derive_rng("chaos-rates", base_seed, seed).randrange(2**31),
        operator_rate=rng.choice(_RATES),
        cache_rate=rng.choice(_RATES),
        compile_rate=rng.choice(_RATES),
    )
    injector = FaultInjector(fault_plan)

    def check(plan, mode: str, use_cache: bool) -> None:
        # The oracle runs with injection detached; run_reference never
        # touches the cache or the injector, but detaching makes the
        # fault-free contract explicit and keeps draw sequences tied to
        # engine executions only.
        db.fault_injector = None
        want = db.run_reference(plan)
        db.fault_injector = injector
        report.checks += 1
        try:
            got = db.run(plan, mode=mode, use_cache=use_cache)
        except Exception as exc:  # noqa: BLE001 — escapes are the finding
            report.escapes.append(
                ChaosFailure(
                    seed, "escape", mode, f"{type(exc).__name__}: {exc}"
                )
            )
            return
        detail = _describe_mismatch(got, want)
        if detail is not None:
            report.divergences.append(
                ChaosFailure(seed, "divergence", mode, detail)
            )

    for plan in plans:
        for mode in _MODES:
            check(plan, mode, use_cache=False)
        # Warm path: first run populates, second must revalidate any
        # tampered entry instead of serving it.
        check(plan, "compiled", use_cache=True)
        check(plan, rng.choice(_MODES), use_cache=True)

    # Mutate and re-check: the insert invalidates the cached entries
    # that read the relation, so the re-runs recompute (degrading where
    # faults fire) and must still match the reference.
    mutated = rng.choice(_NAMES)
    db.fault_injector = injector
    report.checks += 1
    try:
        db.insert(
            mutated,
            [(rng.randrange(6), rng.randrange(6))
             for _ in range(rng.randint(1, 3))],
        )
    except Exception as exc:  # noqa: BLE001 — escapes are the finding
        report.escapes.append(
            ChaosFailure(
                seed, "escape", "insert", f"{type(exc).__name__}: {exc}"
            )
        )
    for plan in plans[:1]:
        check(plan, "compiled", use_cache=True)
        check(plan, rng.choice(_MODES), use_cache=True)

    report.corruptions_caught += db.plan_cache.corruptions
    for site, count in injector.injected.items():
        report.injected[site] = report.injected.get(site, 0) + count


def _random_mutation_script(rng) -> tuple[dict, list]:
    """Deterministic base contents + a short mutation script, drawn up
    front so the golden (in-process) and WAL-attached runs replay the
    exact same sequence."""
    base_rows = {
        name: sorted(
            {(rng.randrange(5), rng.randrange(5))
             for _ in range(rng.randint(1, 4))}
        )
        for name in _NAMES
    }
    ops: list = []
    for i in range(rng.randint(3, 6)):
        kind = rng.randrange(6)
        if kind == 0:
            ops.append(("create", f"u{i}", 2))
        elif kind == 1:
            name = rng.choice(_NAMES)
            ops.append((
                "replace", name,
                [(rng.randrange(5), rng.randrange(5))
                 for _ in range(rng.randint(1, 3))],
            ))
        else:
            name = rng.choice(_NAMES)
            ops.append((
                "insert", name,
                [(rng.randrange(9), rng.randrange(9))
                 for _ in range(rng.randint(1, 3))],
            ))
    return base_rows, ops


def _apply_op(db: Database, op: tuple) -> None:
    kind, name = op[0], op[1]
    if kind == "create":
        db.create(name, op[2])
    elif kind == "insert":
        db.insert(name, op[2])
    else:
        db[name] = CVSet(Tup(row) for row in op[2])


def _check_recovery(report: ChaosReport, base_seed: int, seed: int) -> None:
    """The crash-recovery differential: every truncation point of the
    WAL must recover to *some prefix* of the committed mutations."""
    rng = derive_rng("chaos-recovery", base_seed, seed)
    base_rows, ops = _random_mutation_script(rng)

    def build_base() -> Database:
        db = Database(cache_capacity=32)
        for name in _NAMES:
            db.create(name, 2)
            db.insert(name, base_rows[name])
        return db

    # Golden prefixes: digest after applying ops[:k] in-process, for
    # every k.  Any crash point must recover to one of these.
    shadow = build_base()
    golden = [database_digest(shadow)]
    for op in ops:
        _apply_op(shadow, op)
        golden.append(database_digest(shadow))
    golden_set = set(golden)
    report.recovery_scenarios += 1

    injector = FaultInjector(FaultPlan(
        seed=derive_rng("chaos-recovery-rates", base_seed, seed)
        .randrange(2**31),
        durability_rate=rng.choice(_RATES),
    ))
    with tempfile.TemporaryDirectory() as workdir:
        state_dir = os.path.join(workdir, "state")
        live = build_base()
        # Attaching durability *after* the base build auto-checkpoints
        # it: the base state is the snapshot and the script is the
        # log — the same split a long-lived database would have.
        live.durability = DurabilityManager(
            state_dir,
            fsync=False,
            checkpoint_every=rng.choice((None, None, 2)),
            fault_injector=injector,
        )
        for op in ops:
            try:
                _apply_op(live, op)
            except InjectedFault:
                break  # the simulated crash: the process is "dead"
            except Exception as exc:  # noqa: BLE001 — escapes are the finding
                report.escapes.append(ChaosFailure(
                    seed, "escape", "recovery",
                    f"{type(exc).__name__}: {exc}",
                ))
                return

        wal_path = os.path.join(state_dir, WAL_NAME)
        with open(wal_path, "rb") as handle:
            data = handle.read()

        # Crash points: every record boundary (including the empty log
        # and the full log) plus sampled intra-record byte offsets.
        offsets = {0, len(data)}
        offsets.update(
            i + 1 for i, byte in enumerate(data) if byte == 0x0A
        )
        if data:
            offsets.update(
                rng.sample(range(len(data)), min(6, len(data)))
            )

        scratch = os.path.join(workdir, "crash")
        os.makedirs(scratch)
        checkpoint_src = os.path.join(state_dir, "checkpoint.json")
        if os.path.exists(checkpoint_src):
            shutil.copy(checkpoint_src, scratch)

        def check_recovered(tag: str, wal_bytes: bytes) -> None:
            with open(os.path.join(scratch, WAL_NAME), "wb") as handle:
                handle.write(wal_bytes)
            report.checks += 1
            report.recovery_points += 1
            try:
                recovered, _ = recover(scratch)
            except Exception as exc:  # noqa: BLE001 — escapes are the finding
                report.escapes.append(ChaosFailure(
                    seed, "escape", "recovery",
                    f"{tag}: {type(exc).__name__}: {exc}",
                ))
                return
            if database_digest(recovered) not in golden_set:
                report.divergences.append(ChaosFailure(
                    seed, "divergence", "recovery",
                    f"{tag}: recovered database matches no committed "
                    f"prefix (gen {recovered._generation})",
                ))

        for offset in sorted(offsets):
            check_recovered(f"truncate@{offset}", data[:offset])

        # A mid-record bit flip (media corruption, not truncation):
        # the CRC must end the readable prefix at the flip, still
        # yielding a committed prefix.
        if data:
            flip_at = rng.randrange(len(data))
            if data[flip_at] != 0x0A:  # keep the framing, break the CRC
                flipped = (
                    data[:flip_at]
                    + bytes([data[flip_at] ^ 0x20])
                    + data[flip_at + 1:]
                )
                check_recovered(f"bitflip@{flip_at}", flipped)

    for site, count in injector.injected.items():
        report.injected[site] = report.injected.get(site, 0) + count


def _square_shift(x: int) -> int:
    """Top-level (picklable) worker for the crash scenario."""
    return x * x + 7


def _check_worker_crash(
    report: ChaosReport, base_seed: int, seed: int
) -> None:
    rng = derive_rng("chaos-crash", base_seed, seed)
    items = list(range(rng.randint(12, 30)))
    serial = [_square_shift(x) for x in items]
    crash_seed = rng.randrange(2**31)
    report.crash_scenarios += 1
    # Recoverable: each crashing chunk dies on its first attempt only.
    report.checks += 1
    recovered = parallel_map(
        _square_shift,
        items,
        jobs=2,
        chunk_size=4,
        chunk_fault=WorkerCrash(seed=crash_seed, rate=0.5, crash_attempts=1),
    )
    if recovered != serial:
        report.divergences.append(
            ChaosFailure(
                seed, "divergence", "parallel",
                "crash-retry merge differs from serial output",
            )
        )
    # Unrecoverable in-pool: forces the in-parent serial fallback.
    report.checks += 1
    fallback = parallel_map(
        _square_shift,
        items,
        jobs=2,
        chunk_size=4,
        max_chunk_retries=1,
        chunk_fault=WorkerCrash(seed=crash_seed, rate=0.5, crash_attempts=9),
    )
    if fallback != serial:
        report.divergences.append(
            ChaosFailure(
                seed, "divergence", "parallel",
                "serial-fallback merge differs from serial output",
            )
        )


def run_chaos(
    seeds: int = 50, *, base_seed: int = 0, crash_every: int = 25
) -> ChaosReport:
    """Run the chaos matrix over ``seeds`` seeds; see the module doc.

    ``crash_every <= 0`` disables the worker-crash scenarios (they
    spawn process pools, so e.g. doctest environments may want them
    off).
    """
    report = ChaosReport(seeds=seeds)
    before = REGISTRY.snapshot().get("counters", {})
    for seed in range(seeds):
        _check_seed(report, base_seed, seed)
        _check_recovery(report, base_seed, seed)
        if crash_every > 0 and seed % crash_every == crash_every - 1:
            _check_worker_crash(report, base_seed, seed)
    after = REGISTRY.snapshot().get("counters", {})
    report.degradations = after.get("robustness.degraded", 0) - before.get(
        "robustness.degraded", 0
    )
    return report
