"""WAL unit tests: record format, scan prefix rule, the one-record
commit with its rollback, append-side LSN discipline.

The crash-shaped end-to-end properties (every byte prefix, injected
faults) live in ``test_property.py`` and ``test_faults.py``; this file
pins the building blocks those properties are made of.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.durability import (
    RECORD_KINDS,
    WalError,
    WalRecord,
    WalScan,
    WriteAheadLog,
    decode_line,
    encode_record,
    scan_wal,
)


def record(lsn=1, kind="insert", generation=1, payload=None) -> WalRecord:
    return WalRecord(lsn, kind, generation, payload or {"name": "r"})


class TestRecordFormat:
    def test_roundtrip(self):
        for kind in RECORD_KINDS:
            rec = record(lsn=7, kind=kind, generation=3,
                         payload={"name": "r", "rows": [{"t": [1, 2]}]})
            line = encode_record(rec)
            assert line.endswith(b"\n")
            assert decode_line(line[:-1]) == rec

    def test_line_is_canonical_json(self):
        line = encode_record(record())
        data = json.loads(line)
        assert list(data) == sorted(data)  # sorted keys
        assert b" " not in line  # compact separators

    def test_crc_covers_every_field(self):
        base = record(lsn=5, kind="insert", generation=2,
                      payload={"name": "r", "rows": []})
        good = json.loads(encode_record(base))
        for field_name, tampered in (
            ("lsn", 6),
            ("kind", "replace"),
            ("gen", 3),
            ("payload", {"name": "s", "rows": []}),
        ):
            bad = dict(good)
            bad[field_name] = tampered
            line = json.dumps(bad, sort_keys=True).encode()
            with pytest.raises(WalError, match="crc mismatch"):
                decode_line(line)

    @pytest.mark.parametrize(
        "line, match",
        [
            (b"not json", "undecodable"),
            (b"\xff\xfe", "undecodable"),
            (b"[1,2]", "not an object"),
            (b"{}", "missing field"),
            (b'{"crc":0,"gen":1,"kind":"insert","lsn":1}', "missing field"),
            (
                b'{"crc":0,"gen":1,"kind":"vacuum","lsn":1,"payload":{}}',
                "unknown record kind",
            ),
            (
                b'{"crc":0,"gen":1,"kind":"insert","lsn":true,"payload":{}}',
                "lsn must be an int",
            ),
            (
                b'{"crc":0,"gen":"1","kind":"insert","lsn":1,"payload":{}}',
                "gen must be an int",
            ),
            (
                b'{"crc":0,"gen":1,"kind":"insert","lsn":1,"payload":[]}',
                "payload must be an object",
            ),
        ],
    )
    def test_untrustworthy_lines_rejected(self, line, match):
        with pytest.raises(WalError, match=match):
            decode_line(line)


class TestScan:
    def _lines(self, *records):
        return b"".join(encode_record(r) for r in records)

    def test_clean_log(self):
        recs = (record(lsn=1), record(lsn=2, kind="create",
                                      payload={"name": "s"}))
        scan = scan_wal(self._lines(*recs))
        assert scan.records == recs
        assert scan.clean_length == len(self._lines(*recs))
        assert not scan.torn_tail and not scan.corrupt
        assert scan.error is None

    def test_empty(self):
        assert scan_wal(b"") == WalScan((), 0)

    def test_torn_tail_dropped(self):
        head = encode_record(record(lsn=1))
        tail = encode_record(record(lsn=2))[:-10]  # unterminated
        scan = scan_wal(head + tail)
        assert [r.lsn for r in scan.records] == [1]
        assert scan.clean_length == len(head)
        assert scan.torn_tail and not scan.corrupt
        assert "torn tail" in scan.error

    def test_corrupt_line_ends_the_prefix(self):
        # A decodable record *after* the corruption must not be
        # trusted: skipping a mutation mid-sequence would break the
        # prefix guarantee even though the later bytes look fine.
        head = encode_record(record(lsn=1))
        bad = b'{"broken": true}\n'
        after = encode_record(record(lsn=3))
        scan = scan_wal(head + bad + after)
        assert [r.lsn for r in scan.records] == [1]
        assert scan.clean_length == len(head)
        assert scan.corrupt and not scan.torn_tail

    def test_bit_flip_caught_by_crc(self):
        line = encode_record(record(lsn=1))
        # Flip a payload byte, keep the framing intact.
        i = line.index(b'"name"')
        flipped = line[:i] + b'"nAme"' + line[i + 6 :]
        scan = scan_wal(flipped)
        assert scan.records == ()
        assert scan.corrupt

    def test_scan_at_every_boundary_is_a_record_prefix(self):
        recs = tuple(record(lsn=i) for i in range(1, 5))
        data = self._lines(*recs)
        boundaries = [0] + [
            i + 1 for i, b in enumerate(data) if b == 0x0A
        ]
        for n in boundaries:
            scan = scan_wal(data[:n])
            assert scan.records == recs[: len(scan.records)]
            assert not scan.torn_tail and not scan.corrupt


class TestWriteAheadLog:
    def test_one_record_per_commit(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path, fsync=False)
        assert wal.last_lsn == 0
        assert wal.commit("insert", {"name": "r", "rows": []}, 1) == 1
        # Unbuffered: the record is in the file before any close.
        assert scan_wal(path.read_bytes()).records == (
            WalRecord(1, "insert", 1, {"name": "r", "rows": []}),
        )
        assert wal.commit("replace", {"name": "r", "value": {"s": []}}, 2) == 2
        assert wal.last_lsn == 2
        wal.close()
        scan = scan_wal(path.read_bytes())
        assert [(r.lsn, r.kind) for r in scan.records] == [
            (1, "insert"), (2, "replace"),
        ]

    def test_reopen_resumes_lsn(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path, fsync=False)
        wal.commit("create", {"name": "r"}, 0)
        wal.close()
        again = WriteAheadLog(path, fsync=False)
        assert again.commit("insert", {"name": "r", "rows": []}, 1) == 2
        again.close()

    def test_reopen_truncates_torn_tail(self, tmp_path):
        # A process killed mid-write runs no rollback; the reopen does
        # the truncation instead.
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path, fsync=False)
        wal.commit("insert", {"name": "r", "rows": []}, 1)
        wal.close()
        clean = path.read_bytes()
        with open(path, "ab") as handle:
            handle.write(b'{"half a rec')  # crash artifact
        again = WriteAheadLog(path, fsync=False)
        # The torn bytes are gone *before* the next commit, so the new
        # record is readable instead of being glued onto garbage.
        next_lsn = again.commit("insert", {"name": "r", "rows": []}, 2)
        assert next_lsn == 2
        again.close()
        data = path.read_bytes()
        assert data.startswith(clean)
        scan = scan_wal(data)
        assert [r.lsn for r in scan.records] == [1, 2]
        assert not scan.torn_tail and not scan.corrupt

    def test_reset_empties_file_but_keeps_lsn_monotonic(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path, fsync=False)
        wal.commit("insert", {"name": "r", "rows": []}, 1)
        wal.reset()
        assert path.read_bytes() == b""
        assert wal.commit("insert", {"name": "r", "rows": []}, 2) == 2
        wal.close()

    def test_one_fsync_per_commit_by_default(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            "os.fsync", lambda fd: (synced.append(fd), real_fsync(fd))[1]
        )
        wal = WriteAheadLog(tmp_path / "wal.jsonl")
        wal.commit("create", {"name": "r"}, 0)
        wal.commit("insert", {"name": "r", "rows": []}, 1)
        assert len(synced) == 2
        wal.close()

    def test_fsync_disabled_skips_os_fsync(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            "os.fsync",
            lambda fd: (_ for _ in ()).throw(AssertionError("fsynced")),
        )
        wal = WriteAheadLog(tmp_path / "wal.jsonl", fsync=False)
        wal.commit("create", {"name": "r"}, 0)
        wal.close()


def _failing_fsync(fd):
    raise OSError(5, "Input/output error")


class TestRollback:
    """A commit that fails leaves no byte behind, and its LSN is handed
    out again."""

    def _log(self, tmp_path, **kwargs):
        wal = WriteAheadLog(tmp_path / "wal.jsonl", **kwargs)
        wal.commit("insert", {"name": "r", "rows": []}, 1)
        return wal, (tmp_path / "wal.jsonl").read_bytes()

    def test_failed_fsync_truncates_the_record(self, tmp_path, monkeypatch):
        wal, before = self._log(tmp_path)
        with monkeypatch.context() as patch:
            patch.setattr("os.fsync", _failing_fsync)
            with pytest.raises(OSError, match="Input/output error"):
                wal.commit("insert", {"name": "r", "rows": [{"t": [1]}]}, 2)
        assert (tmp_path / "wal.jsonl").read_bytes() == before
        assert wal.last_lsn == 1
        assert wal.commit("insert", {"name": "r", "rows": [{"t": [2]}]}, 2) == 2
        wal.close()
        scan = scan_wal((tmp_path / "wal.jsonl").read_bytes())
        assert [r.payload["rows"] for r in scan.records] == [[], [{"t": [2]}]]

    def test_short_write_truncates_the_record(self, tmp_path):
        wal, before = self._log(tmp_path, fsync=False)

        class _ShortWrites:
            def __init__(self, handle):
                self.handle = handle

            def write(self, line):
                return self.handle.write(line[: len(line) // 2])

            def __getattr__(self, name):
                return getattr(self.handle, name)

        wal._handle = _ShortWrites(wal._handle)
        with pytest.raises(OSError, match="short write"):
            wal.commit("insert", {"name": "r", "rows": [{"t": [1]}]}, 2)
        assert (tmp_path / "wal.jsonl").read_bytes() == before
        wal.close()

    def test_failed_truncate_closes_the_log(self, tmp_path, monkeypatch):
        wal, before = self._log(tmp_path)
        monkeypatch.setattr("os.fsync", _failing_fsync)

        def ftruncate(fd, length):
            raise OSError("no truncate")

        monkeypatch.setattr("os.ftruncate", ftruncate)
        with pytest.raises(OSError, match="no truncate") as raised:
            wal.commit("insert", {"name": "r", "rows": [{"t": [1]}]}, 2)
        assert "Input/output error" in str(raised.value.__context__)
        after = (tmp_path / "wal.jsonl").read_bytes()
        assert after.startswith(before) and after != before
        monkeypatch.undo()
        # The log ends in bytes of unknown length: nothing more is
        # appended after them.
        with pytest.raises(ValueError, match="closed file"):
            wal.commit("insert", {"name": "r", "rows": [{"t": [2]}]}, 2)
        assert (tmp_path / "wal.jsonl").read_bytes() == after
