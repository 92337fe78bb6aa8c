"""The ``durability`` fault site: torn appends, bit flips, failed
fsyncs, and the crash window between commit and apply.

Each test pins one direction of the atomicity contract:

* a fault *before* the commit marker → the mutation never happened
  (caller saw an exception, recovery sees an uncommitted record);
* a fault *after* the commit marker → the mutation durably happened
  (recovery replays what the in-memory process never finished).
"""

from __future__ import annotations

import pytest

from repro.durability import (
    DurabilityManager,
    WriteAheadLog,
    database_digest,
    encode_record,
    recover,
    scan_wal,
    WalRecord,
)
from repro.engine.database import Database
from repro.robustness.faults import (
    FAULT_SITES,
    FaultInjector,
    FaultPlan,
    InjectedFault,
)
from repro.types.values import cvset, tup


SAMPLE_LINE = encode_record(
    WalRecord(3, "insert", 2, {"name": "r", "rows": [{"t": [1, 2]}]})
)


class TestSite:
    def test_registered(self):
        assert "durability" in FAULT_SITES
        assert FaultPlan(durability_rate=0.7).rate_for("durability") == 0.7

    def test_rate_zero_never_tampers(self):
        injector = FaultInjector(FaultPlan(seed=1))
        for _ in range(50):
            assert injector.tamper_wal_line(SAMPLE_LINE) == (
                SAMPLE_LINE, None,
            )
        assert injector.injected == {}

    def test_deterministic_per_seed(self):
        plan = FaultPlan(seed=42, durability_rate=0.5)
        one, two = FaultInjector(plan), FaultInjector(plan)
        first = [one.tamper_wal_line(SAMPLE_LINE) for _ in range(30)]
        second = [two.tamper_wal_line(SAMPLE_LINE) for _ in range(30)]
        assert first == second
        assert one.injected == two.injected
        assert any(out != SAMPLE_LINE for out, _ in first)  # some fired

    def test_tamper_shapes(self):
        injector = FaultInjector(FaultPlan(seed=7, durability_rate=1.0))
        shapes = {"torn-write": 0, "torn-record": 0, "bit-flip": 0}
        for _ in range(200):
            out, label = injector.tamper_wal_line(SAMPLE_LINE)
            if label == "torn-write":
                assert out == SAMPLE_LINE[: len(out)]
                assert len(out) < len(SAMPLE_LINE)
            elif label == "torn-record":
                assert out.endswith(b"\x00\xffgarbage")
                assert not out.endswith(b"\n")
            else:
                assert label is None
                assert len(out) == len(SAMPLE_LINE)
                diffs = [
                    i for i, (x, y) in enumerate(zip(out, SAMPLE_LINE))
                    if x != y
                ]
                assert len(diffs) == 1
                assert out.endswith(b"\n")  # framing byte never flipped
                label = "bit-flip"
            shapes[label] += 1
        assert all(count > 0 for count in shapes.values())
        assert injector.injected["durability"] == 200

    def test_every_tampered_shape_ends_the_readable_prefix(self):
        injector = FaultInjector(FaultPlan(seed=11, durability_rate=1.0))
        for _ in range(100):
            out, _label = injector.tamper_wal_line(SAMPLE_LINE)
            if out == SAMPLE_LINE:
                continue  # zero-length flip collisions cannot happen; safety
            scan = scan_wal(out)
            assert scan.records == ()  # nothing tampered is ever trusted


class _LabelFault:
    """Minimal injector firing only at one ``maybe_raise`` label —
    unit-test precision the seeded injector trades away."""

    def __init__(self, label_prefix: str) -> None:
        self.label_prefix = label_prefix
        self.fired = 0

    def tamper_wal_line(self, line):
        return line, None

    def maybe_raise(self, site: str, label: str = "") -> None:
        if label.startswith(self.label_prefix):
            self.fired += 1
            raise InjectedFault(site, label)


class TestCrashWindows:
    def test_failed_fsync_aborts_before_apply(self, tmp_path):
        state = tmp_path / "state"
        db = Database()
        db.durability = DurabilityManager(state, fsync=False)
        db.create("r", 1)
        db.insert("r", [(1,)])
        before = database_digest(db)

        db.durability.fault_injector = _LabelFault("fsync")
        with pytest.raises(InjectedFault, match="fsync"):
            db.insert("r", [(2,)])
        # Atomically never happened: no in-memory change...
        assert database_digest(db) == before
        assert db["r"] == cvset(tup(1))
        # ... and recovery agrees (the half-logged record is dropped).
        # Close first: the failed sync left the record in the stdio
        # buffer, and a real crash could land it on disk anyway.
        db.durability.close()
        recovered, report = recover(state)
        assert database_digest(recovered) == before
        assert report.dropped_uncommitted == 1

    def test_crash_between_commit_and_apply_replays(self, tmp_path):
        state = tmp_path / "state"
        db = Database()
        db.durability = DurabilityManager(state, fsync=False)
        db.create("r", 1)
        db.insert("r", [(1,)])

        db.durability.fault_injector = _LabelFault("apply:")
        with pytest.raises(InjectedFault, match="apply:insert"):
            db.insert("r", [(2,)])
        # The in-memory process never applied it...
        assert db["r"] == cvset(tup(1))
        # ... but the log committed first, so recovery must finish the
        # mutation the crash interrupted.
        recovered, report = recover(state)
        assert recovered["r"] == cvset(tup(1), tup(2))
        assert report.replayed == 3  # create + both inserts

    def test_torn_append_crashes_writer_and_recovery_drops_it(
        self, tmp_path
    ):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path, fsync=False)
        lsn = wal.append("insert", {"name": "r", "rows": []}, 1)
        wal.commit(lsn, 1)

        class _TearNext:
            def tamper_wal_line(self, line):
                return line[: len(line) // 2], "torn-write"

            def maybe_raise(self, site, label=""):
                pass

        wal.fault_injector = _TearNext()
        with pytest.raises(InjectedFault, match="torn-write"):
            wal.append("insert", {"name": "r", "rows": [{"t": [9]}]}, 2)
        wal.close()

        data = path.read_bytes()
        scan = scan_wal(data)
        assert scan.torn_tail
        assert [r.lsn for r in scan.records] == [1, 2]
        # Reopening (the restart after the crash) truncates the tear.
        reopened = WriteAheadLog(path, fsync=False)
        reopened.close()
        assert scan_wal(path.read_bytes()).torn_tail is False

    def test_injected_counts_surface_in_injector(self, tmp_path):
        injector = FaultInjector(FaultPlan(seed=3, durability_rate=1.0))
        db = Database()
        db.durability = DurabilityManager(
            tmp_path / "state", fsync=False, fault_injector=injector
        )
        with pytest.raises(InjectedFault):
            db.create("r", 1)
        assert injector.injected.get("durability", 0) >= 1
