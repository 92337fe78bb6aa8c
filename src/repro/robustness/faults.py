"""Deterministic fault injection: :class:`FaultPlan` and
:class:`FaultInjector`.

The engine's core invariant is executor parity (value, work, ledger)
between the compiled path and the reference interpreter.  This module
supplies the *adversary* for that invariant: a
seeded, reproducible source of component failures threaded through the
compiled executor, the :class:`~repro.engine.exec.cache.PlanCache`,
the write-ahead log, and the parallel harness via optional hooks.  Five
fault sites:

* ``"operator"`` — the compiled plan raises mid-execution (drawn once
  per artifact run);
* ``"cache"`` — a result-cache entry comes back corrupted from
  ``PlanCache.get`` (value, work, or ledger tampered, seal left stale —
  the model of a poisoned/bit-flipped entry);
* ``"compile"`` — plan lowering fails (drawn before ``compile_plan``);
* ``"worker"`` — a parallel worker process dies hard
  (:class:`WorkerCrash` is the picklable ``chunk_fault`` hook for
  :func:`repro.parallel.parallel_map`; it kills the process with
  ``os._exit``, producing a real ``BrokenProcessPool``);
* ``"durability"`` — the write-ahead log misbehaves: an append is torn
  mid-record (a crash during the write — only a byte prefix reaches
  disk), a full record is silently bit-flipped in place (media
  corruption the per-record CRC must catch at scan time), an fsync
  fails (the mutation must abort *before* any in-memory change), or
  the process "dies" between the commit marker and the in-memory
  apply (recovery must replay the committed record).  See
  :meth:`FaultInjector.tamper_wal_line` and
  :mod:`repro.durability.wal`.

Determinism: every draw comes from one ``random.Random`` seeded from
the plan, in execution order.  Executor traversal order is itself
deterministic, so a given (seed, rates, workload) injects the same
faults at the same sites on every run — a chaos failure always
reproduces.  ``FaultInjector.injected`` counts what actually fired, per
site, so harnesses can assert that degradation events line up with
injections.

The hooks are ``None`` by default everywhere; the disabled path costs
one ``is not None`` check per site.
"""

from __future__ import annotations

import os
import random
import zlib
from dataclasses import dataclass

__all__ = [
    "FAULT_SITES",
    "FaultInjector",
    "FaultPlan",
    "InjectedFault",
    "WorkerCrash",
]

#: Fault sites an injector understands, in documentation order.
FAULT_SITES = ("operator", "cache", "compile", "worker", "durability")


class InjectedFault(RuntimeError):
    """An exception raised *on purpose* by a :class:`FaultInjector`.

    Carries the site and label it fired at, so degradation records and
    chaos reports can say exactly which injection a fallback answered.
    """

    def __init__(self, site: str, label: str = "") -> None:
        self.site = site
        self.label = label
        detail = f"injected {site} fault"
        if label:
            detail += f" at {label}"
        super().__init__(detail)


def _derive_seed(*parts) -> int:
    """A stable 32-bit seed from structured parts (no ``hash()`` — that
    is salted per process and would break cross-run determinism)."""
    return zlib.crc32(repr(parts).encode("utf-8"))


@dataclass(frozen=True)
class FaultPlan:
    """Seeded fault rates per site.  All rates default to 0.0 (never
    fire); 1.0 fires on every draw.  The plan is immutable — one plan
    can parameterize many injectors."""

    seed: int = 0
    operator_rate: float = 0.0
    cache_rate: float = 0.0
    compile_rate: float = 0.0
    worker_rate: float = 0.0
    durability_rate: float = 0.0

    def rate_for(self, site: str) -> float:
        if site not in FAULT_SITES:
            raise ValueError(
                f"unknown fault site {site!r}; choose from {FAULT_SITES}"
            )
        return getattr(self, f"{site}_rate")


class FaultInjector:
    """Draws seeded faults for one execution context.

    ``maybe_raise(site, label)`` raises :class:`InjectedFault` at the
    site's configured rate; ``tamper_entry(entry)`` returns a corrupted
    copy of a cache entry at the ``cache`` rate (the stored seal is
    deliberately kept stale, so fingerprint revalidation can catch it).
    ``injected`` counts fired faults per site.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._rng = random.Random(_derive_seed("fault-injector", plan.seed))
        self.injected: dict[str, int] = {}
        self.draws = 0

    def _fire(self, site: str) -> bool:
        rate = self.plan.rate_for(site)
        self.draws += 1
        if rate <= 0.0:
            return False
        if self._rng.random() >= rate:
            return False
        self.injected[site] = self.injected.get(site, 0) + 1
        return True

    def maybe_raise(self, site: str, label: str = "") -> None:
        """Raise :class:`InjectedFault` at ``site``'s configured rate."""
        if self._fire(site):
            raise InjectedFault(site, label)

    def tamper_entry(self, entry):
        """Return ``entry`` or a corrupted copy of it (``cache`` site).

        Three corruption shapes, chosen by the seeded rng: a wrong
        value (an extra sentinel row), a wrong work total, or a
        tampered ledger.  The copy keeps the original's seal, modelling
        an entry whose bytes changed after it was sealed.
        """
        if not self._fire("cache"):
            return entry
        from ..engine.exec.cache import CacheEntry
        from ..types.values import CVSet, Tup

        shape = self._rng.randrange(3)
        if shape == 0:
            wrong_value = CVSet(
                list(entry.value) + [Tup(("__corrupt__",))]
            )
            return CacheEntry(
                wrong_value, entry.work, entry.entries, entry.relations,
                entry.seal,
            )
        if shape == 1:
            return CacheEntry(
                entry.value, entry.work + 1, entry.entries,
                entry.relations, entry.seal,
            )
        return CacheEntry(
            entry.value, entry.work,
            entry.entries + (("__corrupt__", 1),), entry.relations,
            entry.seal,
        )

    def tamper_wal_line(self, line: bytes) -> tuple[bytes, "str | None"]:
        """Corrupt one encoded WAL record (``durability`` site).

        Returns ``(bytes_to_write, crash_label)``.  Three shapes,
        chosen by the seeded rng:

        * **truncate-at-byte-k** — only a prefix of the record reaches
          disk and the writer "crashes" (``crash_label`` is set; the
          WAL raises :class:`InjectedFault` after writing).  Recovery
          must drop the torn tail;
        * **torn record** — a prefix plus garbage bytes, no
          terminating newline, then the crash.  Same requirement,
          nastier bytes;
        * **bit flip** — a full-length record with one byte flipped,
          written *silently* (no crash, the writer carries on).  The
          per-record CRC must catch it at scan time, ending the
          readable prefix there.

        The final newline byte is never the flip target — corrupting
        the framing alone would only split the line, which the decoder
        already rejects; flipping content exercises the CRC.
        """
        if not self._fire("durability"):
            return line, None
        body = max(1, len(line) - 1)  # keep off the trailing newline
        shape = self._rng.randrange(3)
        if shape == 0:
            return line[: self._rng.randrange(body)], "torn-write"
        if shape == 1:
            k = self._rng.randrange(body)
            return line[:k] + b"\x00\xffgarbage", "torn-record"
        i = self._rng.randrange(body)
        flipped = bytes([line[i] ^ 0x40])
        return line[:i] + flipped + line[i + 1 :], None

    def total_injected(self) -> int:
        return sum(self.injected.values())

    def __repr__(self) -> str:
        return (
            f"FaultInjector(seed={self.plan.seed}, "
            f"injected={self.injected})"
        )


@dataclass(frozen=True)
class WorkerCrash:
    """Picklable worker-crash hook for
    :func:`repro.parallel.parallel_map`'s ``chunk_fault`` parameter.

    Called in the *worker process* as ``fault(chunk_index, attempt)``
    before the chunk runs.  A chunk crashes (hard, via ``os._exit``)
    when its seeded draw fires **and** ``attempt < crash_attempts`` —
    so the default configuration crashes a chunk's first attempt only,
    and the bounded retry must recover it.  ``crash_attempts`` larger
    than the harness's retry budget forces the in-parent serial
    fallback instead (the parent never calls this hook).

    Whether a chunk crashes depends only on ``(seed, chunk_index)``, so
    the same chunks crash on every run — crash recovery is as
    reproducible as every other fault site.
    """

    seed: int = 0
    rate: float = 0.5
    crash_attempts: int = 1

    def crashes(self, chunk_index: int) -> bool:
        rng = random.Random(
            _derive_seed("worker-crash", self.seed, chunk_index)
        )
        return rng.random() < self.rate

    def __call__(self, chunk_index: int, attempt: int) -> None:
        if attempt < self.crash_attempts and self.crashes(chunk_index):
            # A hard exit, not an exception: the pool sees a dead
            # process, exactly like a segfault or an OOM kill.
            os._exit(3)
