"""The :class:`DurabilityManager`: the Database's logging hook.

Attach one to a database and every mutation becomes crash-durable::

    db.durability = DurabilityManager("state/")

The write protocol, per mutation (WAL is the source of truth):

1. :meth:`WriteAheadLog.commit` appends one CRC-checked record and
   syncs it once — the mutation is now durable: recovery will replay
   it even if the process dies this instant;
2. apply in memory (the Database method body runs).

A failure in step 1 (a real I/O error, a short write, or an injected
torn write or ``fsync`` fault) truncates the log back to where the
record began and aborts *before* any in-memory state changed: the
caller sees the exception, no byte of the record is left, and the
next mutation logs after the last committed one — the mutation
atomically never happened.  A crash between step 1 and step 2 (the
injected ``apply`` fault) is the opposite promise: the record is
durable, so recovery replays the mutation the in-memory process never
finished.  Both directions are differentially checked by the
``recovery`` scenario of the fuzz harness (:mod:`repro.engine.fuzz`).

Validation stays ahead of logging: the Database only calls the
``log_*`` hooks after its own checks passed (arity, declared keys), so
a logged record is always replayable.

Checkpoints: ``checkpoint_every=N`` publishes a snapshot after every
``N`` applied mutations and resets the log; ``checkpoint(db)`` does it
on demand.  Replay cost is bounded by the checkpoint interval.  A
policy checkpoint that fails is counted and retried after the next
mutation, not raised from the mutation that triggered it; an
on-demand ``checkpoint(db)`` raises.
"""

from __future__ import annotations

import os
from typing import Optional

from ..engine.serialize import relation_schema_to_json, value_to_json
from ..obs.metrics import counter
from .checkpoint import write_checkpoint
from .wal import WAL_NAME, WriteAheadLog

__all__ = ["DurabilityManager"]


class DurabilityManager:
    """Write-ahead logging + checkpoint policy for one directory."""

    def __init__(
        self,
        directory,
        *,
        fsync: bool = True,
        checkpoint_every: Optional[int] = None,
        fault_injector=None,
    ) -> None:
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.checkpoint_every = checkpoint_every
        self.wal = WriteAheadLog(
            os.path.join(self.directory, WAL_NAME),
            fsync=fsync,
            fault_injector=fault_injector,
        )
        self._since_checkpoint = 0

    # ------------------------------------------------------------------
    # Fault injection (the ``durability`` site lives on the WAL).

    @property
    def fault_injector(self):
        return self.wal.fault_injector

    @fault_injector.setter
    def fault_injector(self, injector) -> None:
        self.wal.fault_injector = injector

    # ------------------------------------------------------------------
    # Logging hooks (called by Database, after validation, before apply).

    def _log(self, kind: str, payload: dict, generation: int) -> int:
        lsn = self.wal.commit(kind, payload, generation)
        counter("robustness.wal.records_committed")
        injector = self.wal.fault_injector
        if injector is not None:
            # The crash-between-commit-and-apply window: the record is
            # durable, the in-memory apply never happens.  Recovery
            # must replay it.
            injector.maybe_raise("durability", f"apply:{kind}")
        return lsn

    def log_create(self, info, generation: int) -> int:
        """Log a relation declaration (a
        :class:`~repro.optimizer.constraints.RelationInfo`) in the
        schema shape checkpoints use."""
        payload = {"name": info.name, **relation_schema_to_json(info)}
        return self._log("create", payload, generation)

    def log_insert(self, name: str, rows, generation: int) -> int:
        """Log the *effective* insert delta (rows not already present);
        the Database passes exactly what it is about to apply, so
        replay inserts the identical delta and lands on the identical
        generation."""
        payload = {
            "name": name,
            "rows": [value_to_json(t) for t in rows],
        }
        return self._log("insert", payload, generation)

    def log_replace(self, name: str, relation, generation: int) -> int:
        payload = {"name": name, "value": value_to_json(relation)}
        return self._log("replace", payload, generation)

    # ------------------------------------------------------------------
    # Checkpoint policy.

    def mutation_applied(self, db) -> None:
        """Called by the Database after a logged mutation took effect
        in memory; drives the ``checkpoint_every`` policy.

        The mutation is already durable and applied, so a policy
        checkpoint that fails with an ``OSError`` does not fail it:
        the failure is counted (``robustness.wal.checkpoints_failed``)
        and the next mutation tries again.  Until one succeeds,
        recovery replays every record since the last published
        snapshot."""
        self._since_checkpoint += 1
        if (
            self.checkpoint_every
            and self._since_checkpoint >= self.checkpoint_every
        ):
            try:
                self.checkpoint(db)
            except OSError:
                counter("robustness.wal.checkpoints_failed")

    def checkpoint(self, db) -> str:
        """Publish a snapshot, then reset the log.

        The order matters: the snapshot lands (atomically) first, so a
        crash before the reset leaves a WAL whose records are all
        covered by the snapshot's LSN and skipped on replay.
        """
        injector = self.wal.fault_injector
        if injector is not None:
            from ..robustness.faults import InjectedIOFault

            injector.maybe_raise("durability", "checkpoint", InjectedIOFault)
        path = write_checkpoint(self.directory, db, lsn=self.wal.last_lsn)
        self.wal.reset()
        self._since_checkpoint = 0
        counter("robustness.wal.checkpoints_written")
        return path

    def close(self) -> None:
        self.wal.close()

    def __repr__(self) -> str:
        return (
            f"DurabilityManager({self.directory!r}, "
            f"last_lsn={self.wal.last_lsn})"
        )
