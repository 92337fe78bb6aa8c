"""Semantically-keyed plan-result cache with per-relation invalidation.

Entries are keyed by :func:`~repro.engine.exec.fingerprint.semantic_cache_key`
— an interned **semantic token** (structural plan identity *plus* the
callable objects the plan carries) and the fingerprints of every base
relation the plan reads — so a stale or aliased entry can never be
*returned*: a mutated relation changes its fingerprint, and a
``predicate_name``/``fn_name`` bound to a different callable object
changes its token.  Per-relation invalidation and the LRU cap exist to
bound *space* and keep the table dense with live entries.

Cached entries store the answer **and** the work ledger the executors
produced, so a cache hit reports costs as if the plan had run: the
measured work that E-OPT-COST and ``repro optimize`` compare keeps its
meaning regardless of cache state.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from ...optimizer.plan import Plan
from ...types.values import CVSet
from .fingerprint import annotate_plan

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
    """LRU cache of plan results, with work-weighted admission and
    hit/miss accounting.

    Keys are ``(semantic token, relation fingerprints)`` (see
    :func:`~repro.engine.exec.fingerprint.semantic_cache_key`).  Every
    :meth:`get` counts one lookup of its key's token; the counts halve
    every ``10 * capacity`` lookups, so they follow what is hot now.  A
    :meth:`put` of a new key into a full cache evicts the least
    recently used entry only if ``count(new) * new.work >=
    count(victim) * victim.work``; otherwise it stores nothing and
    counts the refusal in ``refused``.  Ties admit, so a cache nobody
    looked up is plain LRU, and one that never fills never refuses.
    Counts are per token, not per key: a key's fingerprints change with
    every insert, its token does not.

    It holds answers, and the annotations of recently run plan objects
    (see :meth:`annotate`); compiled plans are lowered again on every
    run and are not kept.
    ``capacity <= 0`` disables caching entirely: ``put`` is a no-op (no
    entry churn) and ``get`` always misses.
    """

    def __init__(self, capacity: int = 256) -> None:
        self.capacity = capacity
        self._entries: OrderedDict = OrderedDict()
        #: Interning state for semantic tokens (see ``annotate_plan``).
        self._intern: dict = {}
        #: ``id(plan) -> (plan, info)`` for the last ``capacity`` plan
        #: objects annotated, least recently used first (see
        #: :meth:`annotate`).  The stored plan keeps its ``id`` from
        #: being reused while the entry lives.
        self._annotations: OrderedDict = OrderedDict()
        #: Semantic token -> lookups, halved every ``10 * capacity``
        #: lookups (``_window`` counts them); the admission weight.
        self._counts: dict = {}
        self._window = 0
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0
        #: Puts that stored nothing: the newcomer weighed less than the
        #: entry it would have evicted.
        self.refused = 0
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

    def annotate(self, plan: Plan) -> dict[int, tuple[int, frozenset]]:
        """Semantic token + base relations for every subtree of ``plan``
        (``id(node) -> (token, relations)``), interned against this
        cache's intern table so tokens are stable across executions.

        A token reads the plan and its callables, never the data, so
        the walk runs once per plan object: the ``info`` of the last
        ``capacity`` plan objects is kept by identity and returned
        again (the same dict; treat it as read-only).  Inserts leave it
        alone; ``invalidate(None)``/``clear()`` drop it with the intern
        table.  With ``capacity <= 0`` every call walks."""
        memo = self._annotations
        entry = memo.get(id(plan))
        if entry is not None and entry[0] is plan:
            memo.move_to_end(id(plan))
            return entry[1]
        info = annotate_plan(plan, self._intern)
        if self.capacity > 0:
            memo[id(plan)] = (plan, info)
            if len(memo) > self.capacity:
                memo.popitem(last=False)
        return info

    # ------------------------------------------------------------------
    # Storage.

    def _count(self, token) -> None:
        """Count one lookup of ``token``; every ``10 * capacity``
        lookups, halve all counts and forget those that reach 0."""
        counts = self._counts
        counts[token] = counts.get(token, 0) + 1
        self._window += 1
        if self._window >= 10 * self.capacity:
            self._window = 0
            self._counts = {t: n >> 1 for t, n in counts.items() if n > 1}

    def get(self, key) -> Optional[CacheEntry]:
        if self.capacity <= 0:
            self.misses += 1
            return None
        self._count(key[0])
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
            del self._entries[key]
            self.misses += 1
            from ...obs.metrics import counter

            counter("robustness.cache.corruption_detected")
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key, entry: CacheEntry) -> None:
        """Store ``entry`` under ``key``, unless the cache is full, the
        key is new, and the entry weighs less than the least recently
        used one (see the class docstring)."""
        if self.capacity <= 0:
            return
        if key not in self._entries and len(self._entries) >= self.capacity:
            victim_key, victim = next(iter(self._entries.items()))
            counts = self._counts
            if (
                counts.get(key[0], 0) * entry.work
                < counts.get(victim_key[0], 0) * victim.work
            ):
                self.refused += 1
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
        # Re-put refreshes the entry and its LRU position.
        self._entries.pop(key, None)
        self._entries[key] = entry
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def invalidate(self, relation: Optional[str] = None) -> None:
        """Drop every entry reading ``relation`` (or everything).

        One pass over the at most ``capacity`` entries.
        ``invalidations`` counts dropped *entries*, not calls — an
        invalidate that touches nothing counts nothing."""
        if relation is None:
            self.invalidations += len(self._entries)
            self._entries.clear()
            self._intern.clear()
            self._annotations.clear()
            # Tokens are reissued once the intern table is gone.
            self._counts.clear()
            self._window = 0
            return
        stale = [
            key
            for key, entry in self._entries.items()
            if relation in entry.relations
        ]
        for key in stale:
            del self._entries[key]
        self.invalidations += len(stale)

    def clear(self) -> None:
        self.invalidate(None)

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0
        self.refused = 0
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
            "refused": self.refused,
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
