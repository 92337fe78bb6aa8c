"""Checkpoints: atomic snapshots bounding WAL replay.

A checkpoint is one JSON file (``checkpoint.json``) next to the WAL::

    {"format": 1, "lsn": L, "generation": G, "database": {...}}

``database`` reuses :func:`repro.engine.serialize.database_to_json` —
the same snapshot format ``save_database`` writes — and the file is
published with the same crash-safe idiom (same-directory temp file,
flush + fsync, ``os.replace``), so a crash mid-checkpoint leaves the
previous checkpoint intact, never a truncated one.

``lsn`` is the last log record the snapshot already contains: recovery
replays only committed records *past* it.  Publication order is
checkpoint first, log reset second; a crash between the two leaves a
stale WAL whose records all carry ``lsn <= L`` and are filtered out,
so the window is harmless by construction.

``generation`` pins the database's mutation counter.  Rebuilding a
snapshot replays inserts (each bumping the counter), so without the
recorded value a recovered database would disagree with the original
on its generation; :func:`load_checkpoint` restores it explicitly.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from ..engine.database import Database
from ..engine.serialize import (
    SerializeError,
    atomic_write_text,
    database_from_json,
    database_to_json,
)

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_NAME",
    "load_checkpoint",
    "write_checkpoint",
]

CHECKPOINT_NAME = "checkpoint.json"
CHECKPOINT_FORMAT = 1


def write_checkpoint(directory, db: Database, *, lsn: int) -> str:
    """Atomically publish a snapshot of ``db`` covering LSNs ``<= lsn``.

    Returns the checkpoint path.
    """
    path = os.path.join(os.fspath(directory), CHECKPOINT_NAME)
    payload = {
        "format": CHECKPOINT_FORMAT,
        "lsn": lsn,
        "generation": db._generation,
        "database": database_to_json(db),
    }
    atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=1))
    return path


def load_checkpoint(directory) -> Optional[tuple[Database, int]]:
    """Rebuild the checkpointed database, or ``None`` when no
    checkpoint exists.  Returns ``(db, lsn)`` with the database's
    generation restored to the snapshot's recorded value.

    Malformed checkpoint bytes raise
    :class:`~repro.engine.serialize.SerializeError` — unlike a torn
    WAL tail, a broken checkpoint is not a survivable crash artifact
    (publication is atomic), so it is surfaced, not skipped.
    """
    path = os.path.join(os.fspath(directory), CHECKPOINT_NAME)
    if not os.path.exists(path):
        return None
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SerializeError(f"malformed checkpoint {path}: {exc}") from None
    if not isinstance(payload, dict) or "database" not in payload:
        raise SerializeError(f"malformed checkpoint {path}: not a snapshot")
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise SerializeError(
            f"unsupported checkpoint format {payload.get('format')!r}"
        )
    lsn = payload.get("lsn")
    generation = payload.get("generation")
    for name, value in (("lsn", lsn), ("generation", generation)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise SerializeError(f"checkpoint {name} must be an int")
    db = database_from_json(payload["database"])
    db._restore_generation(generation)
    return db, lsn
