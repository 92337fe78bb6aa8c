"""Write-ahead-logged durability: WAL + checkpoints + crash recovery.

The mutation surface of :class:`~repro.engine.database.Database`
(``create``, ``insert``, ``db[name] = ...``) logs each mutation to an
append-only JSONL WAL *before* applying it (one CRC-checked record,
one fsync, then apply; a failed write is truncated away);
:func:`recover` rebuilds the database from the last checkpoint plus
the log suffix, dropping torn tails and anything past a CRC failure,
so any crash point yields a prefix of the committed mutation
sequence.  See ``docs/ROBUSTNESS.md`` ("Durability
and crash recovery") and ``tests/durability``.

Quick start::

    from repro.durability import DurabilityManager, recover

    db.durability = DurabilityManager("state/", checkpoint_every=100)
    db.insert("r", rows)          # logged, synced, then applied
    ...
    db2, report = recover("state/")   # after a crash
"""

from .checkpoint import (
    CHECKPOINT_NAME,
    load_checkpoint,
    write_checkpoint,
)
from .manager import DurabilityManager
from .recovery import (
    RecoveryReport,
    apply_record,
    database_digest,
    recover,
    replay_records,
)
from .wal import (
    RECORD_KINDS,
    WAL_NAME,
    WalError,
    WalRecord,
    WalScan,
    WriteAheadLog,
    decode_line,
    encode_record,
    scan_wal,
)

__all__ = [
    "CHECKPOINT_NAME",
    "DurabilityManager",
    "RECORD_KINDS",
    "RecoveryReport",
    "WAL_NAME",
    "WalError",
    "WalRecord",
    "WalScan",
    "WriteAheadLog",
    "apply_record",
    "database_digest",
    "decode_line",
    "encode_record",
    "load_checkpoint",
    "recover",
    "replay_records",
    "scan_wal",
    "write_checkpoint",
]
