"""In-memory databases over a signature.

A :class:`Database` is the runtime object tying together the pieces:
named relations (sets of tuples), their declared schemas/keys (a
:class:`~repro.optimizer.constraints.Catalog`), and the signature of
interpreted symbols.  The optimizer and the experiments run against it.

Physical-layer state maintained alongside the relations (all lazy,
all incrementally updated on :meth:`insert`, all dropped on wholesale
replacement via ``db[name] = ...``):

* a **private key index** per declared key, mapping each key value to
  its row — used only to validate declared keys incrementally (no
  full-relation rescan per insert batch);
* **content fingerprints** (O(1), from the relation's precomputed hash)
  keying the plan-result cache;
* a :class:`~repro.engine.exec.PlanCache` of plan results,
  invalidated per relation on every mutation.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ..obs.trace import Span
from ..optimizer.constraints import Catalog, RelationInfo
from ..optimizer.plan import (
    ExecutionResult,
    Plan,
    Scan,
    execute_reference,
    node_label,
    tuple_weight,
)
from ..types.signatures import Signature, standard_signature
from ..types.values import CVSet, Tup, Value
from .exec import (
    CacheEntry,
    PlanCache,
    execute_compiled,
    relation_fingerprint,
    semantic_cache_key,
)

__all__ = ["Database", "SchemaError", "MODE_CHAIN"]

_EMPTY = CVSet()

#: Degradation order for :meth:`Database.run`: on executor failure,
#: fall back one step right.  The reference interpreter is the
#: injection-free terminal fallback — it has no compiler and no fault
#: hooks, so the chain always terminates with an answer (or re-raises
#: if even the reference fails, which no injected fault can cause).
MODE_CHAIN = ("compiled", "reference")


class SchemaError(Exception):
    """Raised for arity mismatches or violated declared keys."""


class Database:
    """Named relations + schema catalog + signature + physical state."""

    def __init__(
        self,
        signature: Optional[Signature] = None,
        cache_capacity: int = 256,
    ) -> None:
        self.relations: dict[str, CVSet] = {}
        self.catalog = Catalog()
        self.signature = signature or standard_signature()
        self.plan_cache = PlanCache(cache_capacity)
        #: ``relation name -> {key columns -> {key value -> row}}``.
        #: Scoped per relation so insert-time maintenance touches only
        #: the inserted relation's indexes, not every live index.
        self._key_indexes: dict[str, dict[tuple[int, ...], dict]] = {}
        #: ``name -> uniform element len`` (or None when mixed/atoms);
        #: lets the compiled executor compute intermediate weights as
        #: ``count * width`` instead of per-tuple sums.
        self._widths: dict[str, Optional[int]] = {}
        #: Bumped on every mutation; the write-ahead log records it and
        #: recovery restores it.
        self._generation = 0
        #: Optional :class:`~repro.robustness.faults.FaultInjector`;
        #: see the ``fault_injector`` property.
        self._fault_injector = None
        #: Optional :class:`~repro.durability.DurabilityManager`; see
        #: the ``durability`` property.  When attached, every mutation
        #: is written (and synced) to the write-ahead log *before*
        #: it takes effect in memory.
        self._durability = None

    def create(
        self,
        name: str,
        arity: int,
        keys: Sequence[Sequence[int]] = (),
        shared_keys: Optional[dict[tuple[int, ...], str]] = None,
    ) -> None:
        """Declare a relation schema.

        An arity that is not an ``int >= 0``, or a key or shared-key
        column outside ``range(arity)``, raises :class:`SchemaError`:
        no row could satisfy such a schema.  Arity 0 and keys of no
        columns are accepted.  Declaring a relation again is accepted
        only with the same arity, keys and shared keys; a different
        declaration raises :class:`SchemaError`, since the existing
        rows were validated against the old one.  Either error is
        raised before anything is logged or changed.
        """
        info = RelationInfo(
            name,
            arity,
            tuple(tuple(k) for k in keys),
            dict(shared_keys or {}),
        )
        if not isinstance(arity, int) or arity < 0:
            raise SchemaError(
                f"arity of {name} must be an int >= 0, got {arity!r}"
            )
        columns = range(arity)
        for key in (*info.keys, *info.shared_keys):
            if any(c not in columns for c in key):
                raise SchemaError(
                    f"key {key} of {name} has a column outside "
                    f"range({arity})"
                )
        if name in self.catalog and self.catalog[name] != info:
            raise SchemaError(
                f"{name} is already declared as {self.catalog[name]}, "
                f"not {info}"
            )
        if self._durability is not None:
            # Log-before-apply; ``create`` does not bump the mutation
            # generation, so the logged post-apply generation is the
            # current one.
            self._durability.log_create(info, self._generation)
        self.catalog.add(info)
        if name not in self.relations:
            self.relations[name] = CVSet()
            # Seed the width cache with the declared arity: computing
            # the width of an empty relation yields ``None`` (no rows
            # to measure), and a cached ``None`` would defeat the
            # compiled executor's O(1) count*width accounting for the
            # relation's whole life.
            self._widths[name] = arity
        if self._durability is not None:
            self._durability.mutation_applied(self)

    def insert(self, name: str, rows: Iterable[Sequence[Value]]) -> None:
        """Insert rows, validating arity and declared keys.

        Key validation is incremental: each declared key keeps an index
        from key value to row (built lazily on first use, validated
        once at build time, then maintained per insert), so a batch
        costs O(batch) instead of O(|relation|) per call.  Nothing is
        mutated on failure.
        """
        if name not in self.catalog:
            raise SchemaError(f"unknown relation {name}")
        info = self.catalog[name]
        tuples = list(dict.fromkeys(Tup(row) for row in rows))
        for t in tuples:
            if len(t) != info.arity:
                raise SchemaError(
                    f"{name} expects arity {info.arity}, got {len(t)}: {t!r}"
                )
        for key in info.keys:
            self._validate_key_batch(name, tuple(key), tuples)

        current = self.relations[name]
        new_rows = [t for t in tuples if t not in current]
        if not new_rows:
            return
        if self._durability is not None:
            # Log-before-apply, and only after validation passed: the
            # WAL carries exactly the effective delta (``new_rows``,
            # not the raw batch), so replaying it from the same base
            # state re-creates the identical relation *and* the
            # identical generation bump.  A logging failure (real I/O
            # or an injected ``durability`` fault) aborts here, before
            # any in-memory state changed — the mutation atomically
            # never happened, matching what recovery will say.
            self._durability.log_insert(name, new_rows, self._generation + 1)
        self.relations[name] = current.union(CVSet(new_rows))
        # Maintain this relation's key indexes incrementally; other
        # relations' indexes are never even iterated.
        for cols, index in self._key_indexes.get(name, {}).items():
            for t in new_rows:
                index[tuple(t[i] for i in cols)] = t
        cached_width = self._widths.get(name, info.arity)
        if cached_width != info.arity:
            # Inserted rows all have the declared arity.  If the
            # relation was empty, its width *is* the declared arity now
            # (a cached ``None`` here just means "measured while
            # empty", not "mixed" — never let it pin the relation as
            # widthless forever).  Otherwise a differing cached width
            # means the relation is genuinely mixed-width.
            self._widths[name] = info.arity if not current else None
        self._generation += 1
        self.plan_cache.invalidate(name)
        if self._durability is not None:
            self._durability.mutation_applied(self)

    def _validate_key_batch(
        self, name: str, key_cols: tuple[int, ...], tuples: Sequence[Tup]
    ) -> None:
        """Check a declared key against its index and within the batch."""
        index = self._key_index(name, key_cols)
        pending: dict[tuple, Tup] = {}
        for t in tuples:
            k = tuple(t[i] for i in key_cols)
            # Another row holds this key, in the relation or in the batch.
            if index.get(k, t) != t or pending.setdefault(k, t) != t:
                raise SchemaError(
                    f"key {tuple(c + 1 for c in key_cols)} of {name} violated"
                )

    # ------------------------------------------------------------------
    # Physical state: key indexes, fingerprints, weights and cached widths.

    def _key_index(
        self, name: str, key_cols: tuple[int, ...]
    ) -> dict[tuple, Tup]:
        """The index ``key value -> row`` of one declared key.

        Built from the relation on first use and cached only if no two
        rows share a key value.  A wholesale replacement (``db[name] =
        ...``) bypasses validation, so after one that breaks the key
        every insert raises :class:`SchemaError` until the relation is
        replaced again.  :meth:`insert` maintains the index; replacement
        drops it.
        """
        index = self._key_indexes.get(name, {}).get(key_cols)
        if index is not None:
            return index
        index = {}
        for t in self.relations[name]:
            k = tuple(t[i] for i in key_cols)
            if k in index:
                raise SchemaError(
                    f"key {tuple(c + 1 for c in key_cols)} of {name} violated"
                )
            index[k] = t
        self._key_indexes.setdefault(name, {})[key_cols] = index
        return index

    def fingerprint(self, name: str) -> tuple[int, int]:
        """O(1) content fingerprint of one relation."""
        return relation_fingerprint(self.relations.get(name))

    def relation_width(self, name: str) -> Optional[int]:
        """Cached uniform element length of a relation, or ``None`` when
        elements are mixed-width or atoms (computed once, maintained on
        insert, dropped on wholesale replacement)."""
        if name not in self._widths:
            self._widths[name] = self._compute_width(name)
        return self._widths[name]

    def _compute_width(self, name: str) -> Optional[int]:
        width: Optional[int] = None
        for t in self.relations.get(name, _EMPTY):
            try:
                n = len(t)
            except TypeError:
                return None
            if width is None:
                width = n
            elif width != n:
                return None
        return width

    def relation_stats(self, name: str) -> tuple[int, Optional[int]]:
        """The compiled executor's ``relation_stats`` hook: ``(scan
        weight, uniform width)`` for one relation.  A relation of known
        width weighs ``len * max(width, 1)``, as :func:`tuple_weight`
        weighs each row; one of unknown width sums its rows."""
        width = self.relation_width(name)
        relation = self.relations.get(name, _EMPTY)
        if width is None:
            return (sum(map(tuple_weight, relation)), None)
        return (len(relation) * max(width, 1), width)

    def _invalidate_relation(self, name: str) -> None:
        self._widths.pop(name, None)
        self._key_indexes.pop(name, None)
        self._generation += 1
        self.plan_cache.invalidate(name)

    # ------------------------------------------------------------------
    # Mapping protocol.

    def __getitem__(self, name: str) -> CVSet:
        return self.relations[name]

    def __setitem__(self, name: str, relation: CVSet) -> None:
        if self._durability is not None:
            # Wholesale replacement bumps the generation (via
            # ``_invalidate_relation``), so the logged post-apply
            # generation is one ahead.
            self._durability.log_replace(
                name, relation, self._generation + 1
            )
        self.relations[name] = relation
        self._invalidate_relation(name)
        if self._durability is not None:
            self._durability.mutation_applied(self)

    def __contains__(self, name: str) -> bool:
        return name in self.relations

    # ------------------------------------------------------------------
    # Execution.

    @property
    def fault_injector(self):
        """Optional :class:`~repro.robustness.faults.FaultInjector`
        threaded into the executors and the plan cache.  Assigning it
        here also attaches the ``cache`` fault site to
        :attr:`plan_cache`; assign ``None`` to detach everywhere."""
        return self._fault_injector

    @fault_injector.setter
    def fault_injector(self, injector) -> None:
        self._fault_injector = injector
        self.plan_cache.fault_injector = injector

    @property
    def durability(self):
        """Optional :class:`~repro.durability.DurabilityManager`.

        When attached, ``create``/``insert``/``__setitem__`` append a
        committed record to the write-ahead log *before* mutating any
        in-memory state (see docs/ROBUSTNESS.md, "Durability and crash
        recovery"); :func:`repro.durability.recover` rebuilds the
        database from the manager's directory after a crash.  Assign
        ``None`` to detach (mutations stop being logged).

        Attaching to a database that already holds relations publishes
        an immediate checkpoint: the WAL replays over the last
        snapshot (or an empty database), so pre-attach state that only
        exists in memory would otherwise be unrecoverable — replay
        would hit inserts into relations the base never created.  The
        checkpoint is published before the manager is attached, so an
        attach whose checkpoint fails raises and attaches nothing."""
        return self._durability

    @durability.setter
    def durability(self, manager) -> None:
        if manager is not None and self.relations:
            manager.checkpoint(self)
        self._durability = manager

    def _restore_generation(self, generation: int) -> None:
        """Pin the mutation generation to a recovered value.

        Rebuilding a snapshot replays inserts, each bumping the
        counter; recovery must land on the *original* database's
        generation, which the write-ahead log records with every
        mutation."""
        self._generation = generation

    def _execute(
        self, plan: Plan, mode: str, info: dict, tracer
    ) -> ExecutionResult:
        """One executor attempt (no fallback, no result cache)."""
        if mode == "reference":
            # The terminal fallback: no compiler, no fault hooks — an
            # injected fault can never reach it.
            return execute_reference(plan, self.relations, tracer=tracer)
        return execute_compiled(
            plan,
            self.relations,
            info=info,
            relation_stats=self.relation_stats,
            tracer=tracer,
            fault_injector=self._fault_injector,
        )

    def run(
        self,
        plan: Plan,
        *,
        use_cache: bool = True,
        mode: str = "compiled",
        tracer=None,
    ) -> ExecutionResult:
        """Execute a plan (cached by default).

        ``mode="compiled"`` (the default) lowers the plan, at any
        depth, to a list of operator closures over the current data on
        every run.  ``mode="reference"`` runs the tuple-at-a-time
        interpreter.  Both return the identical value/work/ledger.
        See docs/EXECUTION.md.

        The result cache wraps whichever executor runs: a hit returns
        the stored answer without executing, and a miss stores the
        root result.  ``use_cache=False`` bypasses the result cache.
        Bare scans are never cached.

        **Graceful degradation**: if the compiled executor fails (an
        injected fault, a compile error, any unexpected exception), the
        engine falls back down :data:`MODE_CHAIN` — compiled →
        reference — and re-runs on the reference interpreter.  Executor
        parity guarantees the fallback answer is the answer (identical
        value, work, ledger).  Every degradation event bumps the
        ``robustness.degraded`` metrics counters and is annotated on
        the root span's ``meta["degraded"]`` so EXPLAIN/tracing show
        why a mode was not used; see docs/ROBUSTNESS.md.  The reference
        interpreter is the end of the chain — if it fails too, the
        error propagates.

        ``tracer`` (a :class:`~repro.obs.trace.Tracer`) records a span
        tree for the execution; see docs/OBSERVABILITY.md."""
        if mode not in MODE_CHAIN:
            raise ValueError(
                f"mode must be 'compiled' or 'reference', got {mode!r}"
            )
        info = self.plan_cache.annotate(plan)
        key = None
        if use_cache and not isinstance(plan, Scan):
            token, relations = info[id(plan)]
            key = semantic_cache_key(token, relations, self.relations)
            entry = self.plan_cache.get(key)
            if entry is not None:
                if tracer is not None:
                    span = Span(node_label(plan))
                    span.rows = len(entry.value)
                    span.work = entry.work
                    span.cache = "hit"
                    tracer.record(span)
                return ExecutionResult(
                    entry.value, entry.work, list(entry.entries)
                )
        chain = MODE_CHAIN[MODE_CHAIN.index(mode):]
        degraded: list[dict] = []
        for step, attempt in enumerate(chain):
            try:
                result = self._execute(plan, attempt, info, tracer)
                break
            except Exception as exc:
                if step == len(chain) - 1:
                    raise
                from ..obs.metrics import counter

                counter("robustness.degraded")
                counter(f"robustness.degraded.{attempt}")
                degraded.append(
                    {
                        "mode": attempt,
                        "to": chain[step + 1],
                        "error": f"{type(exc).__name__}: {exc}",
                    }
                )
        if key is not None:
            self.plan_cache.put(
                key,
                CacheEntry(
                    result.value,
                    result.work,
                    tuple(result.per_node),
                    relations,
                ),
            )
        if degraded and tracer is not None and tracer.last is not None:
            # Merge, never clobber: the executor may have attached its
            # own meta to the root span already.
            tracer.last.merge_meta({"degraded": degraded})
        return result

    def run_reference(self, plan: Plan, *, tracer=None) -> ExecutionResult:
        """Execute with the reference tuple-at-a-time interpreter."""
        return execute_reference(plan, self.relations, tracer=tracer)

    def query(self, text: str, optimize: bool = False) -> ExecutionResult:
        """Parse and run a textual plan (see
        :mod:`repro.optimizer.parser`); with ``optimize=True`` the plan
        is first rewritten against this database's catalog."""
        from ..optimizer.parser import parse_plan
        from ..optimizer.rewriter import Rewriter

        plan = parse_plan(text)
        if optimize:
            plan = Rewriter(self.catalog).optimize(plan)
        return self.run(plan)

    def snapshot(self) -> dict[str, CVSet]:
        """An immutable-enough copy of the relation map."""
        return dict(self.relations)

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}[{len(rel)}]" for name, rel in sorted(self.relations.items())
        )
        return f"Database({parts})"
