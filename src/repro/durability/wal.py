"""The write-ahead log: append-only JSONL, one record per mutation.

Record format — one JSON object per line, sorted keys, no whitespace::

    {"crc": C, "gen": G, "kind": K, "lsn": N, "payload": {...}}

* ``lsn`` — monotonic log sequence number, unique per record, never
  reused across checkpoints (so a stale WAL left by a crash between
  checkpoint publication and log reset is filtered by lsn, not guessed
  at);
* ``kind`` — ``"create"`` / ``"insert"`` / ``"replace"``, mirroring
  the Database mutation surface;
* ``gen`` — the database generation the mutation produces when
  applied, so replay can verify it rebuilt the *exact* state;
* ``crc`` — ``zlib.crc32`` over the canonical JSON of the other four
  fields.  A record whose bytes changed after it was written — torn
  write, bit rot, truncation mid-line — fails the check and ends the
  readable prefix.

A record validates itself, so it needs no commit marker:
:meth:`WriteAheadLog.commit` appends it and syncs once, and on any
failure truncates the log back to where the record began.  Every
record inside the readable prefix is therefore a committed mutation.
:func:`scan_wal` stops at the *first* bad line (torn tail, CRC
mismatch, malformed JSON) and drops everything from there on, so
recovery of *any* byte prefix of a WAL yields a prefix of the
committed mutation sequence, never a partial mutation and never a
reordering.  ``tests/durability`` exercises literally every byte
offset.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "RECORD_KINDS",
    "WAL_NAME",
    "WalError",
    "WalRecord",
    "WalScan",
    "WriteAheadLog",
    "decode_line",
    "encode_record",
    "scan_wal",
]

#: File name of the log inside a durability directory.
WAL_NAME = "wal.jsonl"

#: Record kinds, mirroring the Database mutation surface.
RECORD_KINDS = ("create", "insert", "replace")


class WalError(Exception):
    """A WAL record that cannot be trusted: malformed, truncated, or
    failing its CRC.  Scanning treats the first such record as the end
    of the readable prefix."""


@dataclass(frozen=True)
class WalRecord:
    """One decoded log record."""

    lsn: int
    kind: str
    generation: int
    payload: dict


def _record_crc(lsn: int, kind: str, generation: int, payload: dict) -> int:
    canonical = json.dumps(
        {"gen": generation, "kind": kind, "lsn": lsn, "payload": payload},
        sort_keys=True,
        separators=(",", ":"),
    )
    return zlib.crc32(canonical.encode("utf-8"))


def encode_record(record: WalRecord) -> bytes:
    """Encode a record as one newline-terminated JSONL line."""
    crc = _record_crc(
        record.lsn, record.kind, record.generation, record.payload
    )
    line = json.dumps(
        {
            "crc": crc,
            "gen": record.generation,
            "kind": record.kind,
            "lsn": record.lsn,
            "payload": record.payload,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return line.encode("utf-8") + b"\n"


def decode_line(line: bytes) -> WalRecord:
    """Decode one line (without its newline); raise :class:`WalError`
    on anything that cannot be trusted byte-for-byte."""
    try:
        data = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WalError(f"undecodable record: {exc}") from None
    if not isinstance(data, dict):
        raise WalError(f"record is not an object: {data!r}")
    try:
        crc = data["crc"]
        generation = data["gen"]
        kind = data["kind"]
        lsn = data["lsn"]
        payload = data["payload"]
    except KeyError as exc:
        raise WalError(f"record missing field {exc}") from None
    if kind not in RECORD_KINDS:
        raise WalError(f"unknown record kind {kind!r}")
    for field_name, value in (("lsn", lsn), ("gen", generation)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise WalError(f"record {field_name} must be an int: {value!r}")
    if not isinstance(payload, dict):
        raise WalError(f"record payload must be an object: {payload!r}")
    if _record_crc(lsn, kind, generation, payload) != crc:
        raise WalError(f"crc mismatch at lsn {lsn}")
    return WalRecord(lsn, kind, generation, payload)


@dataclass(frozen=True)
class WalScan:
    """The readable prefix of a WAL byte string.

    ``clean_length`` is the byte length of the decoded prefix
    (including each line's newline) — reopening a log for append
    truncates to it, so new records never concatenate onto torn bytes.
    ``torn_tail`` marks an unterminated final line (a write that never
    finished); ``corrupt`` marks a complete line that failed to decode
    (bit flip, CRC mismatch).  Both end the scan.
    """

    records: tuple[WalRecord, ...]
    clean_length: int
    torn_tail: bool = False
    corrupt: bool = False
    error: Optional[str] = None


def scan_wal(data: bytes) -> WalScan:
    """Decode the longest trustworthy prefix of ``data``.

    Stops at the first torn (unterminated) or corrupt line; records
    after a bad one are never returned even if they would decode —
    trusting bytes beyond a corruption would let recovery skip a
    mutation and violate the prefix guarantee.
    """
    records: list[WalRecord] = []
    offset = 0
    torn = corrupt = False
    error: Optional[str] = None
    while offset < len(data):
        newline = data.find(b"\n", offset)
        if newline == -1:
            torn = True
            error = f"torn tail: {len(data) - offset} unterminated byte(s)"
            break
        try:
            records.append(decode_line(data[offset:newline]))
        except WalError as exc:
            corrupt = True
            error = str(exc)
            break
        offset = newline + 1
    return WalScan(
        tuple(records), offset, torn_tail=torn, corrupt=corrupt, error=error
    )


class WriteAheadLog:
    """Append-side of the log: one unbuffered file handle, monotonic
    LSNs.

    ``fsync=False`` trades durability-against-power-loss for speed
    (tests and benchmarks); the write ordering, the rollback and the
    record format are identical, so every crash-consistency property
    still holds.

    ``fault_injector`` (a
    :class:`~repro.robustness.faults.FaultInjector`) arms the
    ``durability`` site inside :meth:`commit`: a record may be torn
    mid-write or bit-flipped in place
    (:meth:`FaultInjector.tamper_wal_line`), and the sync may fail.
    The injection happens inside the region a failure rolls back, so
    the recovery guarantees are exercised, not bypassed.
    """

    def __init__(
        self, path, *, fsync: bool = True, fault_injector=None
    ) -> None:
        self.path = os.fspath(path)
        self.fsync_enabled = fsync
        self.fault_injector = fault_injector
        next_lsn = 1
        if os.path.exists(self.path):
            with open(self.path, "rb") as handle:
                data = handle.read()
            scan = scan_wal(data)
            if scan.clean_length < len(data):
                # Drop the torn/corrupt tail *before* appending: a
                # process killed mid-write runs no rollback, and new
                # records concatenated onto its bytes would be
                # unreadable (the scan stops at the bad line).
                with open(self.path, "r+b") as handle:
                    handle.truncate(scan.clean_length)
            if scan.records:
                next_lsn = max(r.lsn for r in scan.records) + 1
        self._next_lsn = next_lsn
        self._handle = self._open()

    def _open(self):
        # Unbuffered: a record is in the file or nowhere, never held in
        # a buffer that a later write or close could flush.
        return open(self.path, "ab", buffering=0)

    @property
    def last_lsn(self) -> int:
        """The highest LSN committed so far (0 before the first)."""
        return self._next_lsn - 1

    def commit(self, kind: str, payload: dict, generation: int) -> int:
        """Append one record and sync it; returns its LSN.

        Any failure — the write or the sync raising, a short write, or
        an injected torn write — truncates the log back to its length
        before the record and re-raises, so an aborted mutation leaves
        no byte behind and its LSN is handed out again.  If the
        truncate fails too, its error is raised and the log is closed:
        the file now ends in bytes of unknown length, and every later
        commit raises instead of appending after them.  An injected bit
        flip is written silently (the model of media corruption), and
        the CRC catches it at scan time.
        """
        lsn = self._next_lsn
        line = encode_record(WalRecord(lsn, kind, generation, payload))
        start = self._handle.seek(0, os.SEEK_END)
        try:
            crash_label = None
            if self.fault_injector is not None:
                line, crash_label = self.fault_injector.tamper_wal_line(line)
            written = self._handle.write(line)
            if crash_label is not None:
                from ..robustness.faults import InjectedFault

                raise InjectedFault("durability", crash_label)
            if written != len(line):
                raise OSError(
                    f"short write: {written} of {len(line)} bytes"
                )
            if self.fault_injector is not None:
                self.fault_injector.maybe_raise("durability", "fsync")
            if self.fsync_enabled:
                os.fsync(self._handle.fileno())
        except BaseException:
            try:
                os.ftruncate(self._handle.fileno(), start)
            except BaseException:
                self._handle.close()
                raise
            raise
        self._next_lsn += 1
        return lsn

    def reset(self) -> None:
        """Empty the log (after a durable checkpoint).  LSNs stay
        monotonic across resets; the checkpoint's recorded LSN is the
        filter, not file identity.  The open handle is truncated in
        place, so a reset that fails leaves the log whole and open.
        The ``durability`` fault site fires before the truncate (label
        ``reset``), as an ``OSError``."""
        if self.fault_injector is not None:
            from ..robustness.faults import InjectedIOFault

            self.fault_injector.maybe_raise("durability", "reset", InjectedIOFault)
        os.ftruncate(self._handle.fileno(), 0)

    def close(self) -> None:
        self._handle.close()

    def __repr__(self) -> str:
        return f"WriteAheadLog({self.path!r}, next_lsn={self._next_lsn})"
