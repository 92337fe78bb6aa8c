"""Differential fuzzing of the compiled engine against the reference.

The compiled executor's contract is *bit-for-bit agreement* with the
reference interpreter — same ``CVSet`` answer, same total work, same
per-node postorder ledger — for every plan over every database, in
every cache state.  The property tests pin that contract on curated
plans; this harness hammers it with generated ones:

* **random** — random plans over random tuple databases;
* **nested** — the same plans over databases whose components are
  nested complex values (tuples, sets, lists);
* **atoms** — set-operation trees over relations of bare atoms;
* **alias** — one ``predicate_name`` bound to *different* closures
  across (and within) plans sharing a cache — the cache-poisoning
  repro, generalized;
* **deep** — unary chains hundreds to thousands of operators deep,
  past :data:`~repro.engine.exec.MAX_PIPELINE_DEPTH`, so they run on
  the reference interpreter and are cached at the root;
* **mutation** — a live :class:`~repro.engine.database.Database`
  mutated between runs (inserts and wholesale replacement), checking
  that invalidation keeps its cache honest: after every mutation the
  plan runs in both executor modes and each answer must match the
  reference on the new contents;
* **durability** — a WAL-attached database recovered after its
  mutations must equal the live one;
* **compiled** — the plan compiler hammered directly: artifact-store
  reuse across calls, aliased predicates sharing one cache, nested
  databases, a live database cold and warm, and the deep-chain
  fallback to the reference;
* **trace** — every plan run traced on the reference and the compiled
  executor: results must still match the reference (observer effect
  zero), each span tree's work must sum to the executor's ledger
  total, and on plans without shared subtrees the two span trees must
  agree node-for-node on labels, work and shape.  Trace checks also
  exercise the metrics registry, whose totals ``run_fuzz(jobs=N)``
  merges across worker processes.

Every generated plan is executed in up to three modes — ``cold``
(``execute_compiled`` with no artifact memo), ``fresh`` (a new
``Database`` holding the same relations: compiled without the result
cache, then a result-cache miss, then a hit) and ``shared`` (one
``Database`` for the whole scenario, so its artifact memo and result
cache are shared across plans) — and each run is compared against the
reference.  Any mismatch is recorded as a :class:`Divergence`.

Seeds are independent by construction: every scenario derives its rng
as ``derive_rng(base_seed, i, scenario)``, so seed ``i`` plays the same
plans regardless of how many seeds run or which process runs it.  That
is what lets ``run_fuzz(jobs=N)`` shard seeds across worker processes
(:func:`repro.parallel.parallel_map`) and still merge a byte-identical
report.

Entry points: :func:`run_fuzz` (library) and ``python -m repro fuzz
--seeds N [--jobs N]`` (CLI, exits non-zero on divergence).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Mapping as TMapping, Optional

from ..obs.metrics import counter, observe
from ..obs.trace import Span, Tracer
from ..optimizer.plan import (
    Difference,
    Intersect,
    MapNode,
    Plan,
    Scan,
    Select,
    Union,
    execute_reference,
)
from ..types.values import CVSet, Tup, Value
from .database import Database
from .exec import PlanCache, execute_compiled
from .workload import (
    deep_chain_plan,
    derive_rng,
    random_atom_database,
    random_database,
    random_nested_database,
    random_plan,
)

__all__ = ["Divergence", "FuzzReport", "run_fuzz", "SCENARIOS"]


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
    per_scenario: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        lines = [
            f"fuzz: {self.seeds} seeds, {self.checks} differential checks"
        ]
        for name in sorted(self.per_scenario):
            lines.append(f"  {name:10} {self.per_scenario[name]} checks")
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


def _span_shape(root: Span) -> tuple:
    """Preorder ``(label, work, cache, child count)`` per span: what
    the compiled and reference span trees share (compiled interior
    spans carry no row counts)."""
    return tuple(
        (span.label, span.work, span.cache, len(span.children))
        for span in root.walk()
    )


class _Checker:
    """Runs one plan through the execution modes, recording divergences."""

    def __init__(self, report: FuzzReport, seed: int, scenario: str) -> None:
        self.report = report
        self.seed = seed
        self.scenario = scenario
        #: The scenario-wide database of the ``shared`` mode.
        self.shared = Database()

    def _record(self, mode: str, detail: str) -> None:
        self.report.divergences.append(
            Divergence(self.seed, self.scenario, mode, detail)
        )

    def _compare(self, mode: str, got, want) -> None:
        self.report.checks += 1
        self.report.per_scenario[self.scenario] = (
            self.report.per_scenario.get(self.scenario, 0) + 1
        )
        detail = _describe_mismatch(got, want)
        if detail is not None:
            self._record(mode, detail)

    def _check(self, mode: str, ok: bool, detail: str) -> None:
        """A non-differential predicate check (counts like a compare)."""
        self.report.checks += 1
        self.report.per_scenario[self.scenario] = (
            self.report.per_scenario.get(self.scenario, 0) + 1
        )
        if not ok:
            self._record(mode, detail)

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

    def check_trace(self, plan: Plan, db: TMapping[str, CVSet]) -> None:
        """Cross-check compiled vs reference span trees on one plan.

        Traced runs must still match the reference bit-for-bit (the
        tracer has no observer effect on results), every span tree's
        work must sum to its executor's ledger total, and where the
        compiled run served no subtree from its CSE memo the two trees
        must agree node-for-node on labels, work and shape.
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
                _span_shape(tc.last) == _span_shape(tr.last),
                "compiled and reference span trees disagree "
                f"({tc.last.span_count()} vs {tr.last.span_count()} spans)",
            )
        counter("fuzz.trace.plans")
        observe("fuzz.trace.spans", tc.last.span_count())


# ----------------------------------------------------------------------
# Scenario generators.  Each takes (rng, checker) and drives the checker
# through one seed's worth of plans.

_NAMES = ("r", "s", "t")


def _scenario_random(rng: random.Random, check: _Checker) -> None:
    db = random_database(rng, _NAMES)
    for _ in range(3):
        check.check(random_plan(rng, _NAMES, depth=rng.randint(1, 4)), db)


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


def _scenario_alias(rng: random.Random, check: _Checker) -> None:
    """Adversarial name aliasing: one name, many closures, one cache."""
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
    db = Database()
    for name in _NAMES:
        db.create(name, 2)
        db.insert(
            name,
            {
                (rng.randrange(5), rng.randrange(5))
                for _ in range(rng.randint(0, 8))
            },
        )
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


def _scenario_durability(rng: random.Random, check: _Checker) -> None:
    """Crash-recovery differential: a WAL-attached database, mutated
    and (maybe) checkpointed, must recover to the live database's
    exact contents, fingerprints and generation — and a plan run on
    the recovered database must match the live reference answer."""
    import tempfile

    from ..durability import DurabilityManager, recover
    from .serialize import database_to_json

    with tempfile.TemporaryDirectory() as directory:
        live = Database(cache_capacity=16)
        live.durability = DurabilityManager(
            directory,
            fsync=False,
            checkpoint_every=rng.choice((None, 2)),
        )
        for name in _NAMES:
            live.create(name, 2)
            live.insert(
                name,
                {
                    (rng.randrange(6), rng.randrange(6))
                    for _ in range(rng.randint(1, 6))
                },
            )
        for _ in range(rng.randint(1, 3)):
            victim = rng.choice(_NAMES)
            if rng.random() < 0.8:
                live.insert(
                    victim,
                    [(rng.randrange(6), rng.randrange(6))
                     for _ in range(rng.randint(1, 3))],
                )
            else:
                live[victim] = CVSet(
                    Tup((rng.randrange(6), rng.randrange(6)))
                    for _ in range(rng.randint(0, 5))
                )
        recovered, _report = recover(directory)
        check._check(
            "recover-content",
            database_to_json(recovered) == database_to_json(live),
            "recovered contents differ from the live database",
        )
        check._check(
            "recover-generation",
            recovered._generation == live._generation,
            f"recovered generation {recovered._generation} != "
            f"live {live._generation}",
        )
        check._check(
            "recover-fingerprints",
            all(
                recovered.fingerprint(name) == live.fingerprint(name)
                for name in live.relations
            ),
            "recovered fingerprints differ from the live database",
        )
        for _ in range(2):
            plan = random_plan(rng, _NAMES, depth=rng.randint(1, 3))
            check._compare(
                "recover-plan", recovered.run(plan), live.run_reference(plan)
            )


def _scenario_compiled(rng: random.Random, check: _Checker) -> None:
    """Plan-compiler hammering: artifact reuse, aliasing, nesting, a
    live database, and the deep-chain fallback."""
    db = random_database(rng, _NAMES)
    store = PlanCache()
    for _ in range(2):
        plan = random_plan(rng, _NAMES, depth=rng.randint(1, 4))
        reference = execute_reference(plan, db)
        # Second run replays the memoized artifact — same contract.
        check._compare(
            "compiled-store-cold",
            execute_compiled(plan, db, compile_store=store),
            reference,
        )
        check._compare(
            "compiled-store-warm",
            execute_compiled(plan, db, compile_store=store),
            reference,
        )
    ndb = random_nested_database(rng, _NAMES)
    check.check(
        random_plan(rng, _NAMES, depth=rng.randint(1, 3)),
        ndb,
        modes=("cold", "fresh"),
    )
    # One predicate name over different closures against one shared
    # cache: artifact keys must alias apart exactly like result keys.
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
    live = Database()
    for name in _NAMES:
        live.create(name, 2)
        live.insert(
            name,
            {
                (rng.randrange(5), rng.randrange(5))
                for _ in range(rng.randint(0, 8))
            },
        )
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
    # Past MAX_PIPELINE_DEPTH the compiler falls back to the reference.
    plan = deep_chain_plan(rng, rng.choice(_NAMES), rng.randint(200, 400))
    check.check(plan, db, modes=("cold",))


SCENARIOS: dict[str, Callable[[random.Random, _Checker], None]] = {
    "random": _scenario_random,
    "nested": _scenario_nested,
    "atoms": _scenario_atoms,
    "alias": _scenario_alias,
    "mutation": _scenario_mutation,
    "durability": _scenario_durability,
    "compiled": _scenario_compiled,
    "trace": _scenario_trace,
    "deep": _scenario_deep,
}


def _seed_scenarios(
    i: int, active: tuple[str, ...], deep_every: int
) -> list[str]:
    """Which scenarios seed ``i`` plays (cheap rotation + periodic deep)."""
    cheap = [name for name in active if name != "deep"]
    names: list[str] = []
    if cheap:
        names.append(cheap[i % len(cheap)])
    if "deep" in active and deep_every > 0 and i % deep_every == 0:
        names.append("deep")
    return names


def _fuzz_one_seed(
    task: tuple[int, int, tuple[str, ...], int]
) -> FuzzReport:
    """Run one seed's scenarios into a single-seed report.

    Top-level (picklable) so :func:`repro.parallel.parallel_map` can
    ship it to worker processes; the rng is derived from the task alone,
    so the result is identical wherever it runs.
    """
    base_seed, i, active, deep_every = task
    report = FuzzReport(seeds=1)
    for name in _seed_scenarios(i, active, deep_every):
        rng = derive_rng(base_seed, i, name)
        SCENARIOS[name](rng, _Checker(report, base_seed + i, name))
    return report


def _merge_reports(parts: list[FuzzReport]) -> FuzzReport:
    """Concatenate per-seed reports in seed order."""
    merged = FuzzReport()
    for part in parts:
        merged.seeds += part.seeds
        merged.checks += part.checks
        merged.divergences.extend(part.divergences)
        for name, n in part.per_scenario.items():
            merged.per_scenario[name] = merged.per_scenario.get(name, 0) + n
    return merged


def run_fuzz(
    seeds: int,
    *,
    base_seed: int = 0,
    deep_every: int = 10,
    scenarios: Optional[tuple[str, ...]] = None,
    jobs: int = 1,
) -> FuzzReport:
    """Run ``seeds`` differential fuzz iterations.

    Each seed cycles through the cheap scenarios; the expensive ``deep``
    scenario runs every ``deep_every``-th seed.  ``scenarios`` restricts
    the set (by name) when given.  Determinism: seed ``i`` always plays
    the same plans against the same databases, independent of the
    overall count and of ``jobs`` — with ``jobs > 1`` the seeds are
    sharded across worker processes and the per-seed reports merged in
    seed order, so the report (and its rendered summary) is identical
    to the serial run's.
    """
    active = tuple(scenarios) if scenarios is not None else tuple(SCENARIOS)
    unknown = [name for name in active if name not in SCENARIOS]
    if unknown:
        raise ValueError(f"unknown scenario(s): {', '.join(unknown)}")
    tasks = [(base_seed, i, active, deep_every) for i in range(seeds)]
    if jobs > 1:
        from ..parallel import parallel_map

        parts = parallel_map(
            _fuzz_one_seed, tasks, jobs=jobs, merge_metrics=True
        )
    else:
        parts = [_fuzz_one_seed(task) for task in tasks]
    return _merge_reports(parts)
