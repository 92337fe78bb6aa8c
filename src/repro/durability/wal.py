"""The write-ahead log: append-only JSONL of mutation records.

Record format — one JSON object per line, sorted keys, no whitespace::

    {"crc": C, "gen": G, "kind": K, "lsn": N, "payload": {...}}

* ``lsn`` — monotonic log sequence number, unique per record, never
  reused across checkpoints (so a stale WAL left by a crash between
  checkpoint publication and log reset is filtered by lsn, not guessed
  at);
* ``kind`` — ``"create"`` / ``"insert"`` / ``"replace"`` for data
  records, ``"commit"`` for the marker that makes a data record
  durable (``payload = {"of": lsn}``);
* ``gen`` — the database generation the mutation produces when
  applied, so replay can verify it rebuilt the *exact* state;
* ``crc`` — ``zlib.crc32`` over the canonical JSON of the other four
  fields.  A record whose bytes changed after it was written — torn
  write, bit rot, truncation mid-line — fails the check and ends the
  readable prefix.

The durability contract lives in :func:`scan_wal`'s shape: decoding
stops at the *first* bad line (torn tail, CRC mismatch, malformed
JSON) and everything from there on is dropped.  Combined with the
commit-marker rule — a data record counts only once its commit marker
is also inside the readable prefix — recovery of *any* byte prefix of
a WAL yields a prefix of the committed mutation sequence, never a
partial mutation and never a reordering.  ``tests/durability``
exercises literally every byte offset.
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
    "committed_records",
    "decode_line",
    "encode_record",
    "scan_wal",
]

#: File name of the log inside a durability directory.
WAL_NAME = "wal.jsonl"

#: Data record kinds (mirroring the Database mutation surface) plus
#: the commit marker.
RECORD_KINDS = ("create", "insert", "replace", "commit")


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


def committed_records(
    records: tuple[WalRecord, ...]
) -> tuple[list[WalRecord], int]:
    """Data records whose commit marker is inside the scanned prefix.

    Returns ``(committed, uncommitted_count)``.  Committed records are
    ordered by their commit markers, which for this engine's
    single-writer log is also data-record order — a record logged but
    never committed (crash between the data append and the commit
    append) is simply dropped, exactly the atomicity the caller was
    promised when the mutation raised instead of returning.
    """
    pending: dict[int, WalRecord] = {}
    committed: list[WalRecord] = []
    for record in records:
        if record.kind == "commit":
            target = pending.pop(record.payload.get("of"), None)
            if target is not None:
                committed.append(target)
        else:
            pending[record.lsn] = record
    return committed, len(pending)


class WriteAheadLog:
    """Append-side of the log: one file handle, monotonic LSNs.

    ``fsync=False`` trades durability-against-power-loss for speed
    (tests and benchmarks); the write ordering and the record format
    are identical, so every crash-consistency property still holds.

    ``fault_injector`` (a
    :class:`~repro.robustness.faults.FaultInjector`) arms the
    ``durability`` site: appends may be torn mid-record or corrupted
    in place (:meth:`FaultInjector.tamper_wal_line`), and ``sync`` may
    fail.  All injection happens *below* the commit protocol, so the
    recovery guarantees are exercised, not bypassed.
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
                # Drop the torn/corrupt tail *before* appending: new
                # records concatenated onto torn bytes would be
                # unreadable (the scan stops at the bad line), turning
                # one lost uncommitted record into lost committed ones.
                with open(self.path, "r+b") as handle:
                    handle.truncate(scan.clean_length)
            if scan.records:
                next_lsn = max(r.lsn for r in scan.records) + 1
        self._next_lsn = next_lsn
        self._handle = open(self.path, "ab")

    @property
    def last_lsn(self) -> int:
        """The highest LSN ever handed out (0 before the first)."""
        return self._next_lsn - 1

    def append(self, kind: str, payload: dict, generation: int) -> int:
        """Append one record; returns its LSN.

        Under an armed ``durability`` fault site the written bytes may
        be a torn prefix (the injector then raises — the model of a
        crash mid-append) or a silently bit-flipped full record (the
        model of media corruption; the CRC catches it at scan time).
        """
        lsn = self._next_lsn
        line = encode_record(WalRecord(lsn, kind, generation, payload))
        crash_label = None
        if self.fault_injector is not None:
            line, crash_label = self.fault_injector.tamper_wal_line(line)
        self._next_lsn += 1
        self._handle.write(line)
        if crash_label is not None:
            from ..robustness.faults import InjectedFault

            self._handle.flush()
            raise InjectedFault("durability", crash_label)
        return lsn

    def commit(self, lsn: int, generation: int) -> int:
        """Append the commit marker for ``lsn``."""
        return self.append("commit", {"of": lsn}, generation)

    def sync(self) -> None:
        """Flush (and fsync, unless disabled) the log file.

        The armed ``durability`` site can fail the sync — callers must
        abort the mutation, leaving an uncommitted (hence recovery-
        invisible) record behind.
        """
        if self.fault_injector is not None:
            self.fault_injector.maybe_raise("durability", "fsync")
        self._handle.flush()
        if self.fsync_enabled:
            os.fsync(self._handle.fileno())

    def reset(self) -> None:
        """Empty the log (after a durable checkpoint).  LSNs stay
        monotonic across resets; the checkpoint's recorded LSN is the
        filter, not file identity."""
        self._handle.close()
        with open(self.path, "wb"):
            pass
        self._handle = open(self.path, "ab")

    def close(self) -> None:
        self._handle.close()

    def __repr__(self) -> str:
        return f"WriteAheadLog({self.path!r}, next_lsn={self._next_lsn})"
