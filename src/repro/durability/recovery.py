"""Crash recovery: checkpoint + committed WAL replay.

:func:`recover` rebuilds a database from a durability directory in
three phases, each its own span on the ``recover`` span tree:

1. **checkpoint** — rebuild the last published snapshot (or start
   empty), restoring the snapshot's recorded generation;
2. **scan** — decode the WAL's longest trustworthy prefix
   (:func:`~repro.durability.wal.scan_wal`), dropping a torn tail or
   anything after a CRC failure, then keep only records whose commit
   marker made it into that prefix;
3. **replay** — apply the committed records past the checkpoint's LSN
   through the ordinary Database mutation methods, verifying after
   each one that the rebuilt generation matches the logged one.

Replaying through the public mutation surface is what makes the
result *byte-identical* to a database that applied the mutations
in-process: the same index, atom, weight, width and distinct
maintenance runs and the same fingerprints emerge.

Counters (``robustness.wal.*``) make every recovery auditable:
replayed / skipped-stale / dropped-uncommitted record counts, torn
tails and corrupt records dropped, checkpoints loaded.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..engine.database import Database
from ..engine.serialize import value_from_json
from ..obs.metrics import counter
from ..obs.trace import Span, Tracer
from .checkpoint import load_checkpoint
from .wal import WAL_NAME, WalError, WalRecord, committed_records, scan_wal

__all__ = ["RecoveryReport", "apply_record", "recover", "replay_records"]


@dataclass
class RecoveryReport:
    """What one :func:`recover` call found and did."""

    directory: str
    checkpoint_lsn: int = 0
    checkpoint_loaded: bool = False
    records_scanned: int = 0
    replayed: int = 0
    skipped_stale: int = 0
    dropped_uncommitted: int = 0
    torn_tail: bool = False
    corrupt: bool = False
    scan_error: Optional[str] = None
    generation: int = 0
    root: Optional[Span] = field(default=None, repr=False)

    def summary(self) -> str:
        lines = [
            f"recover {self.directory}: generation {self.generation}",
            f"  checkpoint: "
            + (
                f"loaded (lsn {self.checkpoint_lsn})"
                if self.checkpoint_loaded
                else "none"
            ),
            f"  wal: {self.records_scanned} record(s) scanned, "
            f"{self.replayed} replayed, {self.skipped_stale} stale, "
            f"{self.dropped_uncommitted} uncommitted dropped",
        ]
        if self.torn_tail or self.corrupt:
            lines.append(f"  tail dropped: {self.scan_error}")
        return "\n".join(lines)

    def render(self) -> str:
        """Summary plus the recovery span tree."""
        from ..obs.explain import render_span_tree

        parts = [self.summary()]
        if self.root is not None:
            parts.append(render_span_tree(self.root, wall=False))
        return "\n".join(parts)

    def to_dict(self) -> dict:
        return {
            "directory": self.directory,
            "checkpoint_lsn": self.checkpoint_lsn,
            "checkpoint_loaded": self.checkpoint_loaded,
            "records_scanned": self.records_scanned,
            "replayed": self.replayed,
            "skipped_stale": self.skipped_stale,
            "dropped_uncommitted": self.dropped_uncommitted,
            "torn_tail": self.torn_tail,
            "corrupt": self.corrupt,
            "scan_error": self.scan_error,
            "generation": self.generation,
        }


def apply_record(db: Database, record: WalRecord) -> None:
    """Apply one committed record through the public mutation surface.

    Raises :class:`~repro.durability.wal.WalError` when a payload that
    passed its CRC still does not describe a replayable mutation — by
    construction that is a logging bug, not a crash artifact, so it is
    surfaced rather than skipped.
    """
    payload = record.payload
    try:
        name = payload["name"]
        if record.kind == "create":
            db.create(
                name,
                payload["arity"],
                keys=[tuple(k) for k in payload["keys"]],
                shared_keys={
                    tuple(entry["columns"]): entry["group"]
                    for entry in payload["shared_keys"]
                },
            )
        elif record.kind == "insert":
            rows = [value_from_json(row) for row in payload["rows"]]
            db.insert(name, [tuple(t) for t in rows])
        elif record.kind == "replace":
            db[name] = value_from_json(payload["value"])
        else:
            raise WalError(f"cannot replay record kind {record.kind!r}")
    except WalError:
        raise
    except Exception as exc:
        raise WalError(
            f"unreplayable {record.kind} record at lsn {record.lsn}: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    if db._generation != record.generation:
        raise WalError(
            f"generation mismatch replaying lsn {record.lsn}: "
            f"log says {record.generation}, rebuilt {db._generation}"
        )


def replay_records(
    db: Database,
    records: Sequence[WalRecord],
    *,
    after_lsn: int = 0,
) -> tuple[int, int]:
    """Apply committed ``records`` with ``lsn > after_lsn`` to ``db``.

    Returns ``(replayed, skipped_stale)``.  The LSN filter is what
    makes a stale WAL (crash between checkpoint publication and log
    reset) harmless: its records are already inside the snapshot.
    """
    replayed = skipped = 0
    for record in records:
        if record.lsn <= after_lsn:
            skipped += 1
            continue
        apply_record(db, record)
        replayed += 1
    return replayed, skipped


def recover(
    directory, *, tracer: Optional[Tracer] = None
) -> tuple[Database, RecoveryReport]:
    """Rebuild the database a durability directory describes."""
    directory = os.fspath(directory)
    report = RecoveryReport(directory=directory)
    root = Span("recover")
    checkpoint_span = Span("checkpoint")
    scan_span = Span("scan")
    replay_span = Span("replay")
    root.children = [checkpoint_span, scan_span, replay_span]

    loaded = load_checkpoint(directory)
    if loaded is None:
        db = Database()
        checkpoint_lsn = 0
    else:
        db, checkpoint_lsn = loaded
        report.checkpoint_loaded = True
        counter("robustness.wal.checkpoint_loaded")
    report.checkpoint_lsn = checkpoint_lsn
    checkpoint_span.rows = len(db.relations)
    checkpoint_span.meta = {"lsn": checkpoint_lsn}

    wal_path = os.path.join(directory, WAL_NAME)
    if os.path.exists(wal_path):
        with open(wal_path, "rb") as handle:
            data = handle.read()
    else:
        data = b""
    scan = scan_wal(data)
    committed, uncommitted = committed_records(scan.records)
    report.records_scanned = len(scan.records)
    report.torn_tail = scan.torn_tail
    report.corrupt = scan.corrupt
    report.scan_error = scan.error
    report.dropped_uncommitted = uncommitted
    scan_span.rows = len(scan.records)
    scan_span.meta = {
        "bytes": len(data),
        "clean_bytes": scan.clean_length,
        "committed": len(committed),
    }
    if scan.torn_tail:
        counter("robustness.wal.torn_tail_dropped")
    if scan.corrupt:
        counter("robustness.wal.corrupt_record_dropped")
    if uncommitted:
        counter("robustness.wal.uncommitted_dropped", uncommitted)

    replayed, skipped = replay_records(
        db, committed, after_lsn=checkpoint_lsn
    )
    report.replayed = replayed
    report.skipped_stale = skipped
    if replayed:
        counter("robustness.wal.records_replayed", replayed)
    if skipped:
        counter("robustness.wal.records_skipped_stale", skipped)
    counter("robustness.wal.recoveries")
    report.generation = db._generation
    replay_span.rows = replayed
    replay_span.meta = {"skipped_stale": skipped}
    root.meta = {"generation": db._generation}
    root.rows = replayed
    report.root = root
    if tracer is not None:
        tracer.record(root)
    return db, report
