"""Differential fuzzing of the compiled engine against the reference.

The compiled executor's contract is *bit-for-bit agreement* with the
reference interpreter — same ``CVSet`` answer, same total work, same
per-node postorder ledger — for every plan over every database, in
every cache state.  The property tests pin that contract on curated
plans; this harness hammers it with generated ones:

* **random** — random plans over random tuple databases, plus one
  join on two or three column pairs (``random_plan`` keeps joins to
  one pair);
* **nested** — the same plans over databases whose components are
  nested complex values (tuples, sets, lists);
* **atoms** — set-operation trees over relations of bare atoms;
* **alias** — one ``predicate_name`` bound to *different* closures,
  and to bound methods of different instances, across (and within)
  plans sharing a cache — the cache-poisoning repro, generalized;
* **deep** — unary chains 600 to 1,500 operators deep, lowered and
  run by the compiled executor like any other plan, cold and through
  a shared result cache;
* **mutation** — a live :class:`~repro.engine.database.Database`
  mutated between runs (inserts and wholesale replacement), checking
  that invalidation keeps its cache honest: after every mutation the
  plan runs in both executor modes and each answer must match the
  reference on the new contents;
* **compiled** — the plan compiler hammered directly: a rerun lowering
  the plan again, aliased predicates sharing one cache, nested
  databases, a live database cold and warm, and a chain a few hundred
  operators deep;
* **trace** — every plan run traced on the reference and the compiled
  executor: results must still match the reference (observer effect
  zero), each span tree's work must sum to the executor's ledger
  total, and on plans without shared subtrees the two span trees must
  agree node-for-node on labels, rows, work and shape.  Trace checks
  also bump a metrics counter, whose total ``run_fuzz(jobs=N)``
  merges across worker processes;
* **faults** — the degradation guarantee: random plans on a live
  database under seeded operator, cache and compile faults
  (:mod:`repro.robustness.faults`).  Whatever fires, ``Database.run``
  must answer exactly as ``run_reference`` does, falling back from
  the compiled executor to the reference and dropping every tampered
  cache entry at its seal; an exception escaping ``run`` or
  ``insert`` is a divergence too;
* **recovery** — the crash-recovery guarantee: a create/replace/insert
  script runs on a WAL-attached database under seeded ``durability``
  faults (torn writes, bit flips, failed fsyncs, a crash between
  commit and apply, failed checkpoints and log resets), carrying on
  after every failed mutation.  The log is then cut at every record
  boundary, at sampled byte offsets and once after a bit flip, and
  each cut must recover to a prefix of the mutations that took
  effect.  Unless the log holds a bit flip or the crash between
  commit and apply fired, the whole log must recover to the live
  database itself.

Every generated plan is executed in up to three modes — ``cold``
(``execute_compiled`` with no result cache), ``fresh`` (a new
``Database`` holding the same relations: compiled without the result
cache, then a result-cache miss, then a hit) and ``shared`` (one
``Database`` for the whole scenario, so its semantic tokens and
result cache are shared across plans) — and each run is compared
against the reference.  Any mismatch is recorded as a :class:`Divergence`.
The shared database's cache holds :data:`SHARED_CAPACITY` entries, so
its puts evict and its admission policy refuses under the check.  After
a seed's plans, each plan run in the ``shared`` mode runs there again
on its own data (``shared-warm``), so answers the cache serves after
those evictions and refusals are checked too; the report counts the
shared cache's hits, evictions and refusals.

Seed ``i`` plays the ``i % n``-th of the ``n`` scenarios a run names
(all of :data:`SCENARIOS` in order by default, so 500 seeds give each
of the ten 50).  Seeds are independent by construction: every scenario
derives its rng as ``derive_rng(base_seed, i, scenario)`` and draws
everything from it, fault rates and injector seeds included, so seed
``i`` plays the same plans under the same faults regardless of how
many seeds run or which process runs it.  That is what lets
``run_fuzz(jobs=N)`` shard seeds across worker processes
(:func:`repro.parallel.parallel_map`) and still merge a byte-identical
report.

Entry points: :func:`run_fuzz` (library) and ``python -m repro fuzz
--seeds N [--jobs N]`` (CLI, exits non-zero on divergence).
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Mapping as TMapping, Optional

from ..durability import (
    CHECKPOINT_NAME,
    WAL_NAME,
    DurabilityManager,
    database_digest,
    recover,
    scan_wal,
)
from ..obs.metrics import counter
from ..obs.trace import Tracer
from ..optimizer.plan import (
    Difference,
    ExecutionResult,
    Intersect,
    Join,
    MapNode,
    Plan,
    Scan,
    Select,
    Union,
    execute_reference,
)
from ..robustness.faults import FaultInjector, FaultPlan, InjectedFault
from ..types.values import CVSet, Tup, Value
from .database import Database
from .exec import execute_compiled
from .workload import (
    deep_chain_plan,
    derive_rng,
    random_atom_database,
    random_database,
    random_nested_database,
    random_plan,
)

__all__ = ["Divergence", "FuzzReport", "run_fuzz", "SCENARIOS"]

#: Result-cache capacity of the ``shared`` mode's database.  A seed
#: stores a handful of answers there, so a default cache never fills;
#: at 2, 500 seeds (warm reruns included) evict 565 entries and
#: refuse 494 puts.
SHARED_CAPACITY = 2


@dataclass(frozen=True)
class Divergence:
    """One disagreement between engine and reference execution."""

    seed: int
    scenario: str
    mode: str
    detail: str

    def __str__(self) -> str:
        return (
            f"seed={self.seed} scenario={self.scenario} "
            f"mode={self.mode}: {self.detail}"
        )


@dataclass
class FuzzReport:
    """Aggregate outcome of a fuzz run."""

    seeds: int = 0
    checks: int = 0
    divergences: list[Divergence] = field(default_factory=list)
    per_scenario: Counter[str] = field(default_factory=Counter)
    #: Faults the ``faults`` and ``recovery`` scenarios fired, per site.
    injected: Counter[str] = field(default_factory=Counter)
    #: Hits, evictions and refused puts of the ``shared`` mode's
    #: result cache.
    cache: Counter[str] = field(default_factory=Counter)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        lines = [
            f"fuzz: {self.seeds} seeds, {self.checks} differential checks"
        ]
        for name in sorted(self.per_scenario):
            lines.append(f"  {name:10} {self.per_scenario[name]} checks")
        fired = ", ".join(
            f"{site}={n}" for site, n in sorted(self.injected.items())
        )
        lines.append(f"  faults injected: {fired or 'none'}")
        lines.append(
            f"  shared cache: hits={self.cache['hits']}, "
            f"evictions={self.cache['evictions']}, "
            f"refused={self.cache['refused']}"
        )
        if self.ok:
            lines.append("  zero divergences")
        else:
            lines.append(f"  {len(self.divergences)} DIVERGENCE(S):")
            for d in self.divergences[:20]:
                lines.append(f"    {d}")
            if len(self.divergences) > 20:
                lines.append(
                    f"    ... and {len(self.divergences) - 20} more"
                )
        return "\n".join(lines)


def _describe_mismatch(got, want) -> Optional[str]:
    if got.value != want.value:
        return (
            f"value mismatch: engine {len(got.value)} rows, "
            f"reference {len(want.value)} rows"
        )
    if got.work != want.work:
        return f"work mismatch: engine {got.work}, reference {want.work}"
    if got.per_node != want.per_node:
        return (
            f"ledger mismatch: engine {len(got.per_node)} entries, "
            f"reference {len(want.per_node)}"
        )
    return None


def _load(db: Database, relations: TMapping[str, CVSet]) -> Database:
    """Make ``db`` hold exactly ``relations``.  Only relations that
    differ are replaced, so a scenario that reuses one mapping keeps
    its cached entries warm across plans."""
    for name in list(db.relations):
        if name not in relations:
            db[name] = CVSet()
    for name, relation in relations.items():
        if db.relations.get(name) is not relation:
            db[name] = relation
    return db


class _Checker:
    """Runs one plan through the execution modes, recording divergences."""

    def __init__(self, report: FuzzReport, seed: int, scenario: str) -> None:
        self.report = report
        self.seed = seed
        self.scenario = scenario
        #: The scenario-wide database of the ``shared`` mode, and the
        #: (plan, data, reference) of each run there, for ``rerun_shared``.
        self.shared = Database(cache_capacity=SHARED_CAPACITY)
        self.shared_runs: list[
            tuple[Plan, TMapping[str, CVSet], ExecutionResult]
        ] = []

    def _record(self, mode: str, detail: str) -> None:
        self.report.divergences.append(
            Divergence(self.seed, self.scenario, mode, detail)
        )

    def _compare(self, mode: str, got, want) -> None:
        detail = _describe_mismatch(got, want)
        self._check(mode, detail is None, detail)

    def _check(self, mode: str, ok: bool, detail: str) -> None:
        """A non-differential predicate check (counts like a compare)."""
        self.report.checks += 1
        self.report.per_scenario[self.scenario] += 1
        if not ok:
            self._record(mode, detail)

    def escaped(self, mode: str, exc: Exception) -> None:
        """Record an exception that escaped the engine as a divergence."""
        self._check(mode, False, f"{type(exc).__name__} escaped: {exc}")

    def attempt(self, mode: str, action: Callable[[], object]) -> object:
        """``action()``, or ``None`` after recording the exception that
        escaped it."""
        try:
            return action()
        except Exception as exc:  # noqa: BLE001 — an escape is the finding
            self.escaped(mode, exc)
            return None

    def tally(self, injector: FaultInjector) -> None:
        """Add the faults ``injector`` fired to the report."""
        self.report.injected.update(injector.injected)

    ALL_MODES = ("cold", "fresh", "shared")

    def check(
        self,
        plan: Plan,
        db: TMapping[str, CVSet],
        *,
        modes: tuple[str, ...] = ALL_MODES,
    ) -> None:
        reference = execute_reference(plan, db)
        if "cold" in modes:
            self._compare("cold", execute_compiled(plan, db), reference)
        if "fresh" in modes:
            fresh = _load(Database(), db)
            self._compare(
                "fresh-compile", fresh.run(plan, use_cache=False), reference
            )
            self._compare("fresh-cold", fresh.run(plan), reference)
            self._compare("fresh-warm", fresh.run(plan), reference)
        if "shared" in modes:
            self._compare(
                "shared", _load(self.shared, db).run(plan), reference
            )
            self.shared_runs.append((plan, db, reference))

    def rerun_shared(self) -> None:
        """Run every ``shared``-mode plan again on the shared database,
        each on its own data, so the cache is read back."""
        for plan, db, reference in self.shared_runs:
            self._compare(
                "shared-warm", _load(self.shared, db).run(plan), reference
            )

    def check_trace(self, plan: Plan, db: TMapping[str, CVSet]) -> None:
        """Cross-check compiled vs reference span trees on one plan.

        Traced runs must still match the reference bit-for-bit (the
        tracer has no observer effect on results), every span tree's
        work must sum to its executor's ledger total, and where the
        compiled run served no subtree from its CSE memo the two trees
        must agree node-for-node on labels, rows, work and shape.
        """
        reference = execute_reference(plan, db)
        tr, tc = Tracer(), Tracer()
        traced_reference = execute_reference(plan, db, tracer=tr)
        compiled = execute_compiled(plan, db, tracer=tc)
        self._compare("trace-reference", traced_reference, reference)
        self._compare("trace-compiled", compiled, reference)
        for mode, tracer, result in (
            ("trace-reference", tr, traced_reference),
            ("trace-compiled", tc, compiled),
        ):
            root = tracer.last
            self._check(
                mode,
                root.total_work() == result.work,
                f"span work sum {root.total_work()} != "
                f"ledger total {result.work}",
            )
            self._check(
                mode,
                root.rows == len(result.value),
                f"root span rows {root.rows} != "
                f"result rows {len(result.value)}",
            )
        if all(span.cache != "cse" for span in tc.last.walk()):
            self._check(
                "trace-structure",
                tc.last.structure() == tr.last.structure(),
                "compiled and reference span trees disagree "
                f"({tc.last.span_count()} vs {tr.last.span_count()} spans)",
            )
        counter("fuzz.trace.plans")


# ----------------------------------------------------------------------
# Scenario generators.  Each takes (rng, checker) and drives the checker
# through one seed's worth of plans.

_NAMES = ("r", "s", "t")


def _live_database(contents: TMapping[str, CVSet]) -> Database:
    """A live :class:`Database` declaring r, s and t at arity 2 and
    holding ``contents`` (drawn by ``random_database``): its runs go
    through the result cache and the degradation chain, and its
    mutations through any WAL attached to it."""
    db = Database()
    for name in _NAMES:
        db.create(name, 2)
        db.insert(name, contents[name])
    return db


def _scenario_random(rng: random.Random, check: _Checker) -> None:
    db = random_database(rng, _NAMES)
    for _ in range(3):
        check.check(random_plan(rng, _NAMES, depth=rng.randint(1, 4)), db)
    # A join keyed on several columns, which random_plan never draws.
    on = tuple(rng.sample([(i, j) for i in range(2) for j in range(2)],
                          rng.randint(2, 3)))
    left, right = (
        random_plan(rng, _NAMES, depth=rng.randint(0, 2), arity=2)
        for _ in range(2)
    )
    check.check(Join(on, left, right), db)


def _scenario_nested(rng: random.Random, check: _Checker) -> None:
    db = random_nested_database(rng, _NAMES)
    for _ in range(3):
        check.check(random_plan(rng, _NAMES, depth=rng.randint(1, 3)), db)


def _atom_even(v: Value) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v % 2 == 0


def _atom_wrap(v: Value) -> Value:
    return Tup((v,))


def _random_atom_plan(rng: random.Random, depth: int) -> Plan:
    """Set-operation trees over atom relations (no positional access)."""
    if depth <= 0:
        return Scan(rng.choice(_NAMES))
    kind = rng.randrange(5)
    if kind == 0:
        return Select("atom_even", _atom_even, _random_atom_plan(rng, depth - 1))
    if kind == 1:
        return MapNode("wrap", _atom_wrap, _random_atom_plan(rng, depth - 1),
                       injective=True)
    op = (Union, Difference, Intersect)[kind - 2]
    return op(_random_atom_plan(rng, depth - 1),
              _random_atom_plan(rng, depth - 1))


def _scenario_atoms(rng: random.Random, check: _Checker) -> None:
    db = random_atom_database(rng, _NAMES)
    # Always include the bulk fast path (set op over two bare scans)...
    op = rng.choice((Union, Difference, Intersect))
    check.check(op(Scan(rng.choice(_NAMES)), Scan(rng.choice(_NAMES))), db)
    # ...and a couple of deeper trees.
    for _ in range(2):
        check.check(_random_atom_plan(rng, rng.randint(1, 3)), db)


def _threshold_pred(k: int) -> Callable[[Value], bool]:
    def pred(t: Value) -> bool:
        try:
            return t[0] >= k
        except TypeError:
            return False

    return pred


class _AtLeast:
    """A predicate held by an instance: ``keep`` methods of two
    instances share their function and differ only in ``k``."""

    def __init__(self, k: int) -> None:
        self.k = k

    def keep(self, t: Value) -> bool:
        try:
            return t[0] >= self.k
        except TypeError:
            return False


def _scenario_alias(rng: random.Random, check: _Checker) -> None:
    """Adversarial name aliasing: one name, many closures or bound
    methods, one cache."""
    db = random_database(rng, _NAMES)
    base = Scan(rng.choice(_NAMES))
    thresholds = rng.sample(range(-1, 7), rng.randint(2, 4))
    # Across plans sharing check.shared: a poisoned cache would replay
    # the first threshold's answer for all of them.
    for k in thresholds:
        check.check(Select("thresh", _threshold_pred(k), base), db)
    # Within one plan: the CSE memo must also key on semantics, not
    # just on structural (name-based) equality.
    k1, k2 = thresholds[0], thresholds[1]
    check.check(
        Union(
            Select("thresh", _threshold_pred(k1), base),
            Select("thresh", _threshold_pred(k2), base),
        ),
        db,
    )
    # Bound methods of two instances: equal code, different answers,
    # through one shared cache and through one plan's CSE.
    low, high = (
        Select("keep", _AtLeast(k).keep, base)
        for k in sorted(rng.sample(range(-1, 7), 2))
    )
    for plan in (low, high):
        check.check(plan, db, modes=("shared",))
    check.check(Difference(low, high), db, modes=("fresh",))


def _scenario_trace(rng: random.Random, check: _Checker) -> None:
    """Span-tree cross-checks over random plans (see ``check_trace``)."""
    db = random_database(rng, _NAMES)
    for _ in range(2):
        check.check_trace(
            random_plan(rng, _NAMES, depth=rng.randint(1, 3)), db
        )


def _scenario_deep(rng: random.Random, check: _Checker) -> None:
    db = random_database(rng, _NAMES)
    depth = rng.randint(600, 1500)
    plan = deep_chain_plan(rng, rng.choice(_NAMES), depth)
    # Deep chains are expensive; skip the redundant fresh-cache runs.
    check.check(plan, db, modes=("cold", "shared"))


def _scenario_mutation(rng: random.Random, check: _Checker) -> None:
    """A live database mutated mid-sweep; its own cache must stay honest."""
    db = _live_database(random_database(rng, _NAMES))
    for _ in range(3):
        plan = random_plan(rng, _NAMES, depth=rng.randint(1, 3))
        check._compare("db-warmup", db.run(plan), db.run_reference(plan))
        victim = rng.choice(_NAMES)
        if rng.random() < 0.5:
            db.insert(
                victim,
                [(rng.randrange(5), rng.randrange(5))
                 for _ in range(rng.randint(1, 3))],
            )
        else:
            db[victim] = CVSet(
                Tup((rng.randrange(5), rng.randrange(5)))
                for _ in range(rng.randint(0, 6))
            )
        want = db.run_reference(plan)
        for mode in ("compiled", "reference"):
            check._compare(
                f"db-mutated-{mode}", db.run(plan, mode=mode), want
            )


def _scenario_compiled(rng: random.Random, check: _Checker) -> None:
    """Plan-compiler hammering: reruns, aliasing, nesting, a live
    database, and a deep chain."""
    db = random_database(rng, _NAMES)
    for _ in range(2):
        plan = random_plan(rng, _NAMES, depth=rng.randint(1, 4))
        reference = execute_reference(plan, db)
        # A second run lowers the plan again — same contract.
        check._compare("compiled-cold", execute_compiled(plan, db), reference)
        check._compare("compiled-warm", execute_compiled(plan, db), reference)
    ndb = random_nested_database(rng, _NAMES)
    check.check(
        random_plan(rng, _NAMES, depth=rng.randint(1, 3)),
        ndb,
        modes=("cold", "fresh"),
    )
    # One predicate name over different closures against one shared
    # cache: each closure must get its own answer, from the result
    # cache and from the steps lowered for each run alike.
    base = Scan(rng.choice(_NAMES))
    k1, k2 = rng.sample(range(-1, 7), 2)
    for k in (k1, k2):
        check.check(
            Select("thresh", _threshold_pred(k), base),
            db,
            modes=("shared",),
        )
    check.check(
        Union(
            Select("thresh", _threshold_pred(k1), base),
            Select("thresh", _threshold_pred(k2), base),
        ),
        db,
        modes=("cold", "shared"),
    )
    # Live database: compiled cold and warm.
    live = _live_database(random_database(rng, _NAMES))
    for _ in range(2):
        plan = random_plan(rng, _NAMES, depth=rng.randint(1, 3))
        want = live.run_reference(plan)
        check._compare(
            "db-compiled-cold",
            live.run(plan, mode="compiled", use_cache=False),
            want,
        )
        check._compare(
            "db-compiled-warm", live.run(plan, mode="compiled"), want
        )
    # A chain hundreds of operators deep lowers like a shallow plan.
    plan = deep_chain_plan(rng, rng.choice(_NAMES), rng.randint(200, 400))
    check.check(plan, db, modes=("cold",))


#: Per-site fault rates the ``faults`` and ``recovery`` scenarios draw
#: from.  Zero keeps the disabled path honest; 1.0 sends every compiled
#: run down to the reference; the middle rates exercise partial
#: fallbacks and corruption amid cache hits.
_RATES = (0.0, 0.1, 0.35, 1.0)
_MODES = ("compiled", "reference")


def _scenario_faults(rng: random.Random, check: _Checker) -> None:
    """Random plans on a live database under operator, cache and
    compile faults.

    Each plan runs in both executor modes without the result cache,
    then twice through it, so a tampered entry must be dropped at its
    seal instead of served.  An insert, with the injector still
    attached, then invalidates the cached answers that read its
    relation, and the first plan runs twice more.  The oracle is
    ``run_reference`` with the injector detached.
    """
    db = _live_database(random_database(rng, _NAMES))
    plans = [
        random_plan(rng, _NAMES, depth=rng.randint(2, 4))
        for _ in range(rng.randint(1, 3))
    ]
    injector = FaultInjector(FaultPlan(
        seed=rng.randrange(2**31),
        operator_rate=rng.choice(_RATES),
        cache_rate=rng.choice(_RATES),
        compile_rate=rng.choice(_RATES),
    ))

    def run(plan: Plan, mode: str, use_cache: bool) -> None:
        db.fault_injector = None
        want = db.run_reference(plan)
        db.fault_injector = injector
        step = f"faults-{mode}" + ("-cached" if use_cache else "")
        got = check.attempt(
            step, lambda: db.run(plan, mode=mode, use_cache=use_cache)
        )
        if got is not None:
            check._compare(step, got, want)

    for plan in plans:
        for mode in _MODES:
            run(plan, mode, use_cache=False)
        run(plan, "compiled", use_cache=True)
        run(plan, rng.choice(_MODES), use_cache=True)
    victim = rng.choice(_NAMES)
    rows = [(rng.randrange(6), rng.randrange(6))
            for _ in range(rng.randint(1, 3))]
    check.attempt("faults-insert", lambda: db.insert(victim, rows))
    run(plans[0], "compiled", use_cache=True)
    run(plans[0], rng.choice(_MODES), use_cache=True)
    check.tally(injector)


def _mutation_script(rng: random.Random) -> list[tuple]:
    """A short create/replace/insert script, drawn up front so that the
    in-process run and the WAL-attached run apply the same mutations."""
    ops: list[tuple] = []
    for i in range(rng.randint(3, 6)):
        kind = rng.randrange(6)
        if kind == 0:
            ops.append(("create", f"u{i}", 2))
        elif kind == 1:
            ops.append((
                "replace", rng.choice(_NAMES),
                [(rng.randrange(5), rng.randrange(5))
                 for _ in range(rng.randint(1, 3))],
            ))
        else:
            ops.append((
                "insert", rng.choice(_NAMES),
                [(rng.randrange(9), rng.randrange(9))
                 for _ in range(rng.randint(1, 3))],
            ))
    return ops


def _apply_op(db: Database, op: tuple) -> None:
    kind, name, arg = op
    if kind == "create":
        db.create(name, arg)
    elif kind == "insert":
        db.insert(name, arg)
    else:
        db[name] = CVSet(Tup(row) for row in arg)


def _scenario_recovery(rng: random.Random, check: _Checker) -> None:
    """Every crash point of a WAL recovers to a committed prefix.

    A mutation script runs on a WAL-attached database under a drawn
    ``durability`` fault rate.  A mutation that raises an injected
    fault never happened, and the script goes on to the next one; only
    the ``apply:`` crash (the record is durable, the in-memory apply
    never ran) ends it.  A policy checkpoint that fails at the
    ``checkpoint`` or ``reset`` label fails no mutation: the next one
    retries it.  The log is cut at every record boundary (the
    empty and the whole log included), at up to six sampled byte
    offsets, and once after a bit flip that the record CRC must catch.
    Each cut must recover to the :func:`~repro.durability.database_digest`
    (contents, generation, fingerprints) of some prefix of the
    mutations that took effect (those that returned, plus an
    ``apply:``-crashed one) applied in process.  Unless the ``apply:``
    crash fired or the log holds a bit flip (its readable prefix ends
    early), the whole log must recover to the live database itself,
    and a plan on it must answer as the live database's reference
    does.
    """
    contents = random_database(rng, _NAMES)
    ops = _mutation_script(rng)
    injector = FaultInjector(FaultPlan(
        seed=rng.randrange(2**31), durability_rate=rng.choice(_RATES)
    ))
    with tempfile.TemporaryDirectory() as workdir:
        state = os.path.join(workdir, "state")
        live = _live_database(contents)
        # Attaching after the build checkpoints the base: the base is
        # the snapshot and the script is the log.  The injector is
        # armed after that checkpoint, which no fault may fail.
        live.durability = DurabilityManager(
            state, fsync=False, checkpoint_every=rng.choice((None, None, 2))
        )
        live.durability.fault_injector = injector
        took_effect = []
        crashed = False
        for op in ops:
            try:
                _apply_op(live, op)
            except InjectedFault as fault:
                if fault.label.startswith("apply:"):
                    took_effect.append(op)
                    crashed = True
                    break  # the simulated crash: the process is gone
                # Otherwise the mutation never happened.
            except Exception as exc:  # noqa: BLE001 — an escape is the finding
                check.escaped("recover-script", exc)
                break
            else:
                took_effect.append(op)
        check.tally(injector)
        shadow = _live_database(contents)
        golden = {database_digest(shadow)}
        for op in took_effect:
            _apply_op(shadow, op)
            golden.add(database_digest(shadow))
        with open(os.path.join(state, WAL_NAME), "rb") as handle:
            data = handle.read()
        crash = os.path.join(workdir, "crash")
        os.makedirs(crash)
        checkpoint = os.path.join(state, CHECKPOINT_NAME)
        if os.path.exists(checkpoint):
            shutil.copy(checkpoint, crash)

        def recover_cut(mode: str, cut: bytes, where: str):
            with open(os.path.join(crash, WAL_NAME), "wb") as handle:
                handle.write(cut)
            recovered = check.attempt(mode, lambda: recover(crash)[0])
            if recovered is not None:
                check._check(
                    mode,
                    database_digest(recovered) in golden,
                    f"{where} recovers to no committed prefix "
                    f"(generation {recovered._generation})",
                )
            return recovered

        offsets = {0, len(data)}
        offsets.update(i + 1 for i, byte in enumerate(data) if byte == 0x0A)
        if data:
            offsets.update(rng.sample(range(len(data)), min(6, len(data))))
        for offset in sorted(offsets):  # the last cut is the whole log
            whole = recover_cut(
                "recover-cut", data[:offset], f"cut at byte {offset}"
            )
        if data:
            flip_at = rng.randrange(len(data))
            if data[flip_at] != 0x0A:  # keep the framing, break the CRC
                flipped = bytearray(data)
                flipped[flip_at] ^= 0x20
                recover_cut(
                    "recover-bitflip", bytes(flipped),
                    f"bit flip at byte {flip_at}",
                )
        # The apply crash replays a mutation the live database never
        # made, and a bit flip still in the log ends its readable
        # prefix early; otherwise the whole log holds the live database.
        if whole is None or crashed or scan_wal(data).corrupt:
            return
        check._check(
            "recover-whole",
            database_digest(whole) == database_digest(live),
            "the whole log recovers to another database than the live one",
        )
        plan = random_plan(rng, _NAMES, depth=rng.randint(1, 3))
        check._compare(
            "recover-plan", whole.run(plan), live.run_reference(plan)
        )


SCENARIOS: dict[str, Callable[[random.Random, _Checker], None]] = {
    "random": _scenario_random,
    "nested": _scenario_nested,
    "atoms": _scenario_atoms,
    "alias": _scenario_alias,
    "mutation": _scenario_mutation,
    "compiled": _scenario_compiled,
    "trace": _scenario_trace,
    "faults": _scenario_faults,
    "recovery": _scenario_recovery,
    "deep": _scenario_deep,
}


def _fuzz_one_seed(task: tuple[int, int, tuple[str, ...]]) -> FuzzReport:
    """Run seed ``i``'s scenario into a single-seed report.

    Top-level (picklable) so :func:`repro.parallel.parallel_map` can
    ship it to worker processes; the rng is derived from the task alone,
    so the result is identical wherever it runs.
    """
    base_seed, i, active = task
    name = active[i % len(active)]
    report = FuzzReport(seeds=1)
    check = _Checker(report, base_seed + i, name)
    SCENARIOS[name](derive_rng(base_seed, i, name), check)
    check.rerun_shared()
    stats = check.shared.plan_cache.stats()
    report.cache.update(
        hits=stats["hits"],
        evictions=stats["evictions"],
        refused=stats["refused"],
    )
    return report


def _merge_reports(parts: list[FuzzReport]) -> FuzzReport:
    """Concatenate per-seed reports in seed order."""
    merged = FuzzReport()
    for part in parts:
        merged.seeds += part.seeds
        merged.checks += part.checks
        merged.divergences.extend(part.divergences)
        merged.per_scenario.update(part.per_scenario)
        merged.injected.update(part.injected)
        merged.cache.update(part.cache)
    return merged


def run_fuzz(
    seeds: int,
    *,
    base_seed: int = 0,
    scenarios: Optional[tuple[str, ...]] = None,
    jobs: int = 1,
) -> FuzzReport:
    """Run ``seeds`` differential fuzz iterations.

    Seed ``i`` plays ``scenarios[i % len(scenarios)]``; ``scenarios``
    (by name) defaults to all of :data:`SCENARIOS`, and an empty tuple
    or an unknown name raises ``ValueError``.  Determinism: given the
    scenarios, seed ``i`` always plays the same plans against the same
    databases, independent of the overall count and of ``jobs`` — with
    ``jobs > 1`` the seeds are sharded across worker processes and the
    per-seed reports merged in seed order, so the report (and its
    rendered summary) is identical to the serial run's.
    """
    active = tuple(scenarios) if scenarios is not None else tuple(SCENARIOS)
    if not active:
        raise ValueError("no scenario to run")
    unknown = [name for name in active if name not in SCENARIOS]
    if unknown:
        raise ValueError(f"unknown scenario(s): {', '.join(unknown)}")
    tasks = [(base_seed, i, active) for i in range(seeds)]
    if jobs > 1:
        from ..parallel import parallel_map

        parts = parallel_map(
            _fuzz_one_seed, tasks, jobs=jobs, merge_metrics=True
        )
    else:
        parts = [_fuzz_one_seed(task) for task in tasks]
    return _merge_reports(parts)
