"""Semantically-keyed plan-result cache with per-relation invalidation.

Entries are keyed by :func:`~repro.engine.exec.fingerprint.semantic_cache_key`
— an interned **semantic token** (structural plan identity *plus* a
per-cache disambiguator for every named callable) and the fingerprints
of every base relation the plan reads — so a stale or aliased entry can
never be *returned*: a mutated relation changes its fingerprint, and a
``predicate_name``/``fn_name`` rebound to a different callable changes
its token.  Per-relation invalidation and the LRU cap exist to bound
*space* and keep the table dense with live entries.

The callable registry enforces what used to be an unenforced "standing
invariant" (a name identifies its semantics): each distinct callable
bound to a name gets its own alias ordinal, so aliased plans
transparently key apart and both get correct answers.

Cached entries store the answer **and** the work ledger the executors
produced, so a cache hit reports costs as if the plan had run: the
Section 4.4 cost model (``optimizer/cost.py``, the E-OPT experiments)
keeps its meaning regardless of cache state.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional

from ...optimizer.plan import Plan
from ...types.values import CVSet
from .fingerprint import annotate_plan, callable_identity

__all__ = ["CacheEntry", "PlanCache", "entry_seal"]


@dataclass(frozen=True)
class CacheEntry:
    """A materialized plan result: answer, total work, per-node ledger,
    and the base relations the plan read (for invalidation).

    ``seal`` is a content fingerprint over ``(value, work, entries)``,
    stamped by :meth:`PlanCache.put` and re-checked by
    :meth:`PlanCache.get` — an entry whose contents no longer match its
    seal (a poisoned or bit-flipped entry) is dropped and served as a
    miss instead of returned.  O(1) for the value (``CVSet`` hashes are
    precomputed at construction) plus a tuple hash over the ledger.
    """

    value: CVSet
    work: int
    entries: tuple[tuple[str, int], ...]
    relations: frozenset[str]
    seal: Optional[int] = None


def entry_seal(value: CVSet, work: int, entries: tuple) -> int:
    """The content fingerprint :meth:`PlanCache.put` stamps entries with."""
    return hash((value, work, entries))


class PlanCache:
    """LRU cache of plan results with hit/miss accounting.

    ``capacity <= 0`` disables caching entirely: ``put`` is a no-op (no
    entry churn) and ``get`` always misses.
    """

    def __init__(self, capacity: int = 256) -> None:
        self.capacity = capacity
        self._entries: OrderedDict = OrderedDict()
        self._by_relation: dict[str, set] = {}
        #: Interning state for semantic tokens (see ``annotate_plan``).
        self._intern: dict = {}
        #: name -> callable identity -> alias ordinal.  Identity tokens
        #: hold strong references, so a freed callable's ``id`` can
        #: never be recycled into a stale ordinal.
        self._aliases: dict[str, dict] = {}
        #: ``id(fn) -> (fn, identity)``.  Identity is computed once per
        #: callable *object*: closures may capture mutable state (e.g. a
        #: ``nonlocal`` counter), and re-deriving the identity after such
        #: state drifts would silently retire warm entries.  The stored
        #: ``fn`` keeps the object alive so its ``id`` is never reused.
        self._identity_memo: dict[int, tuple[Callable, object]] = {}
        #: Compiled-plan artifacts (``CompiledPlan``), a side table under
        #: the same semantic keys and per-relation invalidation as
        #: results but with its own LRU budget and counters: an artifact
        #: is a *program*, not an answer, so disabling the result cache
        #: (``use_cache=False``) must not force recompilation, and
        #: result-cache pressure must not evict hot artifacts.
        self._compiled: OrderedDict = OrderedDict()
        self._compiled_by_relation: dict[str, set] = {}
        self.compiled_capacity = max(capacity, 0)
        self.compiled_hits = 0
        self.compiled_misses = 0
        self.compiled_puts = 0
        self.compiled_evictions = 0
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0
        self.invalidations = 0
        #: Entries dropped because their contents no longer matched
        #: their seal (see :func:`entry_seal`).
        self.corruptions = 0
        #: Optional :class:`~repro.robustness.faults.FaultInjector`
        #: whose ``cache`` site tampers entries on ``get`` — the test
        #: adversary for the seal revalidation above.  ``None`` (the
        #: default) costs one attribute check per hit.
        self.fault_injector = None

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # Semantic keys.

    def _tag(self, name: str, fn: Callable) -> tuple[str, int]:
        """The alias ordinal of ``fn`` under ``name`` in this cache."""
        memoized = self._identity_memo.get(id(fn))
        if memoized is None:
            identity = callable_identity(fn)
            self._identity_memo[id(fn)] = (fn, identity)
        else:
            identity = memoized[1]
        bindings = self._aliases.setdefault(name, {})
        ordinal = bindings.get(identity)
        if ordinal is None:
            ordinal = len(bindings)
            bindings[identity] = ordinal
        return (name, ordinal)

    def annotate(self, plan: Plan) -> dict[int, tuple[int, frozenset]]:
        """Semantic token + base relations for every subtree of ``plan``
        (``id(node) -> (token, relations)``), interned against this
        cache's registry so tokens are stable across executions."""
        return annotate_plan(plan, self._intern, self._tag)

    # ------------------------------------------------------------------
    # Storage.

    def get(self, key) -> Optional[CacheEntry]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        if self.fault_injector is not None:
            entry = self.fault_injector.tamper_entry(entry)
        if entry.seal is not None and entry.seal != entry_seal(
            entry.value, entry.work, entry.entries
        ):
            # Revalidation failed: the entry's contents drifted from
            # the fingerprint stamped at put time.  Never return it —
            # drop the stored entry and report a miss, so the caller
            # recomputes and re-puts a clean one.
            self.corruptions += 1
            self._discard(key)
            self.misses += 1
            from ...obs.metrics import counter

            counter("robustness.cache.corruption_detected")
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def _discard(self, key) -> None:
        """Drop one entry and its relation back-pointers (no counters)."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        for name in entry.relations:
            keys = self._by_relation.get(name)
            if keys is not None:
                keys.discard(key)

    def put(self, key, entry: CacheEntry) -> None:
        """Store ``entry`` under ``key``."""
        if self.capacity <= 0:
            return
        self.puts += 1
        if entry.seal is None:
            entry = CacheEntry(
                entry.value,
                entry.work,
                entry.entries,
                entry.relations,
                entry_seal(entry.value, entry.work, entry.entries),
            )
        old = self._entries.pop(key, None)
        if old is not None:
            # Re-put refreshes the entry (and its LRU position); drop
            # relation back-pointers the new entry no longer needs.
            for name in old.relations - entry.relations:
                keys = self._by_relation.get(name)
                if keys is not None:
                    keys.discard(key)
        self._entries[key] = entry
        for name in entry.relations:
            self._by_relation.setdefault(name, set()).add(key)
        while len(self._entries) > self.capacity:
            evicted_key, evicted = self._entries.popitem(last=False)
            self.evictions += 1
            for name in evicted.relations:
                keys = self._by_relation.get(name)
                if keys is not None:
                    keys.discard(evicted_key)

    # ------------------------------------------------------------------
    # Compiled artifacts (see ``repro.engine.exec.compile``).

    def get_compiled(self, key):
        """Look up a memoized :class:`CompiledPlan` artifact."""
        artifact = self._compiled.get(key)
        if artifact is None:
            self.compiled_misses += 1
            return None
        self._compiled.move_to_end(key)
        self.compiled_hits += 1
        return artifact

    def put_compiled(self, key, artifact) -> None:
        """Memoize a compiled artifact under its semantic key."""
        if self.compiled_capacity <= 0:
            return
        self.compiled_puts += 1
        old = self._compiled.pop(key, None)
        if old is not None:
            for name in old.relations - artifact.relations:
                keys = self._compiled_by_relation.get(name)
                if keys is not None:
                    keys.discard(key)
        self._compiled[key] = artifact
        for name in artifact.relations:
            self._compiled_by_relation.setdefault(name, set()).add(key)
        while len(self._compiled) > self.compiled_capacity:
            evicted_key, evicted = self._compiled.popitem(last=False)
            self.compiled_evictions += 1
            for name in evicted.relations:
                keys = self._compiled_by_relation.get(name)
                if keys is not None:
                    keys.discard(evicted_key)

    def compiled_stats(self) -> dict:
        return {
            "hits": self.compiled_hits,
            "misses": self.compiled_misses,
            "puts": self.compiled_puts,
            "evictions": self.compiled_evictions,
            "entries": len(self._compiled),
            "capacity": self.compiled_capacity,
        }

    def invalidate(self, relation: Optional[str] = None) -> None:
        """Drop every entry reading ``relation`` (or everything).

        ``invalidations`` counts dropped *entries*, not calls — an
        invalidate that touches nothing is free and counts nothing."""
        if relation is None:
            self.invalidations += len(self._entries)
            self._entries.clear()
            self._by_relation.clear()
            self._compiled.clear()
            self._compiled_by_relation.clear()
            self._intern.clear()
            self._aliases.clear()
            self._identity_memo.clear()
            return
        for key in self._compiled_by_relation.pop(relation, ()):
            artifact = self._compiled.pop(key, None)
            if artifact is None:
                continue
            for name in artifact.relations:
                if name != relation:
                    keys = self._compiled_by_relation.get(name)
                    if keys is not None:
                        keys.discard(key)
        for key in self._by_relation.pop(relation, ()):
            entry = self._entries.pop(key, None)
            if entry is None:
                continue
            self.invalidations += 1
            for name in entry.relations:
                if name != relation:
                    keys = self._by_relation.get(name)
                    if keys is not None:
                        keys.discard(key)

    def clear(self) -> None:
        self.invalidate(None)

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0
        self.invalidations = 0
        self.corruptions = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "puts": self.puts,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "corruptions": self.corruptions,
            # Always 0: inserts invalidate, nothing patches entries in
            # place.  Kept because the benchmark's traced runs read
            # both keys (``CACHE_STATS`` in benchmarks/e2e/tracing.py).
            "maintained": 0,
            "maintain_fallback": 0,
            "entries": len(self._entries),
            "capacity": self.capacity,
        }

    def __repr__(self) -> str:
        return (
            f"PlanCache(entries={len(self._entries)}, hits={self.hits}, "
            f"misses={self.misses})"
        )
