"""The ``durability`` fault site: torn writes, bit flips, failed
fsyncs, the crash window between commit and apply, and failed
checkpoints and log resets.

Each test pins one direction of the atomicity contract:

* a fault *inside* the commit → the mutation never happened (the
  caller saw an exception, the log was rolled back, and the next
  mutation commits and recovers as if it were the first attempt);
* a fault *after* the commit → the mutation durably happened
  (recovery replays what the in-memory process never finished);
* a fault in the checkpoint a mutation triggers → the mutation still
  happened, and the next mutation retries the checkpoint.
"""

from __future__ import annotations

import os

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
from repro.obs.metrics import REGISTRY, snapshot_delta
from repro.robustness.faults import (
    FAULT_SITES,
    FaultInjector,
    FaultPlan,
    InjectedFault,
    InjectedIOFault,
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
    """Minimal injector firing once, at the ``nth`` ``maybe_raise``
    label that starts with ``label_prefix`` — unit-test precision the
    seeded injector trades away."""

    def __init__(self, label_prefix: str, nth: int = 1) -> None:
        self.label_prefix = label_prefix
        self.nth = nth
        self.seen = 0

    def tamper_wal_line(self, line):
        return line, None

    def maybe_raise(
        self, site: str, label: str = "", error: type = InjectedFault
    ) -> None:
        if label.startswith(self.label_prefix):
            self.seen += 1
            if self.seen == self.nth:
                raise error(site, label)


def _durable_db(state, fsync: bool = False) -> Database:
    """A WAL-attached database holding ``r = {(1,)}``."""
    db = Database()
    db.durability = DurabilityManager(state, fsync=fsync)
    db.create("r", 1)
    db.insert("r", [(1,)])
    return db


def _insert_each(db: Database, rows, error) -> list:
    """Insert each row on its own; return the rows whose insert raised
    ``error``, each of which must have left the database unchanged."""
    failed = []
    for row in rows:
        before = database_digest(db)
        try:
            db.insert("r", [(row,)])
        except error:
            assert database_digest(db) == before
            failed.append(row)
    return failed


class TestCrashWindows:
    """A fault inside a commit aborts its mutation, and the mutations
    after it commit and recover; a crash after the commit replays.  In
    the two sync tests, the second sync after the fault is armed is the
    second insert's: one sync per mutation."""

    def test_failed_os_fsync_rolls_back_and_later_inserts_recover(
        self, tmp_path, monkeypatch
    ):
        state = tmp_path / "state"
        db = _durable_db(state, fsync=True)
        real_fsync = os.fsync
        calls = []

        def fsync(fd):
            calls.append(fd)
            if len(calls) == 2:
                raise OSError(5, "Input/output error")
            real_fsync(fd)

        monkeypatch.setattr("os.fsync", fsync)
        failed = _insert_each(db, (2, 3, 4), OSError)
        db.durability.close()
        recovered, _report = recover(state)
        assert database_digest(recovered) == database_digest(db)
        assert failed == [3]
        assert recovered["r"] == cvset(tup(1), tup(2), tup(4))

    def test_injected_fsync_fault_rolls_back_and_later_inserts_recover(
        self, tmp_path
    ):
        state = tmp_path / "state"
        db = _durable_db(state)
        fault = _LabelFault("fsync", nth=2)
        db.durability.fault_injector = fault
        failed = _insert_each(db, (2, 3, 4), InjectedFault)
        db.durability.close()
        recovered, _report = recover(state)
        assert database_digest(recovered) == database_digest(db)
        assert failed == [3] and fault.seen == 3

    def test_crash_between_commit_and_apply_replays(self, tmp_path):
        state = tmp_path / "state"
        db = _durable_db(state)
        db.durability.fault_injector = _LabelFault("apply:")
        with pytest.raises(InjectedFault, match="apply:insert"):
            db.insert("r", [(2,)])
        # The in-memory process never applied it...
        assert db["r"] == cvset(tup(1))
        # ... but the log committed first, so recovery must finish the
        # mutation the crash interrupted.
        db.durability.close()
        recovered, report = recover(state)
        assert recovered["r"] == cvset(tup(1), tup(2))
        assert report.replayed == 3  # create + both inserts

    def test_torn_write_rolls_back_and_the_next_commit_reads(
        self, tmp_path
    ):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path, fsync=False)
        wal.commit("insert", {"name": "r", "rows": []}, 1)
        before = path.read_bytes()

        class _TearNext:
            def tamper_wal_line(self, line):
                return line[: len(line) // 2], "torn-write"

            def maybe_raise(self, site, label=""):
                pass

        wal.fault_injector = _TearNext()
        with pytest.raises(InjectedFault, match="torn-write"):
            wal.commit("insert", {"name": "r", "rows": [{"t": [9]}]}, 2)
        assert path.read_bytes() == before
        wal.fault_injector = None
        assert wal.commit("insert", {"name": "r", "rows": [{"t": [8]}]}, 2) == 2
        wal.close()
        scan = scan_wal(path.read_bytes())
        assert not scan.torn_tail and not scan.corrupt
        assert [(r.lsn, r.payload["rows"]) for r in scan.records] == [
            (1, []), (2, [{"t": [8]}]),
        ]

    def test_injected_counts_surface_in_injector(self, tmp_path):
        injector = FaultInjector(FaultPlan(seed=3, durability_rate=1.0))
        db = Database()
        db.durability = DurabilityManager(
            tmp_path / "state", fsync=False, fault_injector=injector
        )
        with pytest.raises(InjectedFault):
            db.create("r", 1)
        assert injector.injected.get("durability", 0) >= 1


class TestCheckpointFaults:
    """The site fires before a checkpoint publishes its snapshot
    (``checkpoint``) and before the log reset after it (``reset``), as
    an ``OSError``: a policy checkpoint that fails there is counted and
    retried, and its mutation stands."""

    @pytest.mark.parametrize("label", ["checkpoint", "reset"])
    def test_failed_policy_checkpoint_leaves_its_mutation_applied(
        self, tmp_path, label
    ):
        state = tmp_path / "state"
        db = Database()
        db.durability = DurabilityManager(
            state, fsync=False, checkpoint_every=2
        )
        fault = _LabelFault(label)
        db.durability.fault_injector = fault
        db.create("r", 1)
        before = REGISTRY.snapshot()
        db.insert("r", [(1,)])  # second mutation: its checkpoint fails
        delta = snapshot_delta(REGISTRY.snapshot(), before)["counters"]
        assert delta["robustness.wal.checkpoints_failed"] == 1
        assert fault.seen == 1 and db["r"] == cvset(tup(1))
        recovered, report = recover(state)
        assert database_digest(recovered) == database_digest(db)
        # A failed reset comes after the snapshot landed; the records
        # left in the log are all covered by its LSN.
        assert report.checkpoint_loaded == (label == "reset")
        db.insert("r", [(2,)])  # retries the checkpoint, which lands
        recovered, report = recover(state)
        assert database_digest(recovered) == database_digest(db)
        assert report.checkpoint_loaded and report.replayed == 0

    @pytest.mark.parametrize("label", ["checkpoint", "reset"])
    def test_the_fault_is_an_os_error(self, tmp_path, label):
        db = _durable_db(tmp_path / "state")
        db.durability.fault_injector = _LabelFault(label)
        with pytest.raises(InjectedIOFault, match=label) as raised:
            db.durability.checkpoint(db)  # a direct call raises
        assert isinstance(raised.value, OSError)
        assert raised.value.site == "durability"

    def test_seeded_injector_fires_at_both_labels(self, tmp_path):
        injector = FaultInjector(FaultPlan(seed=0, durability_rate=1.0))
        wal = WriteAheadLog(tmp_path / "wal.jsonl", fsync=False)
        wal.fault_injector = injector
        with pytest.raises(InjectedIOFault, match="reset"):
            wal.reset()
        wal.close()
        db = _durable_db(tmp_path / "state")
        db.durability.fault_injector = injector
        with pytest.raises(InjectedIOFault, match="checkpoint"):
            db.durability.checkpoint(db)
        assert injector.injected == {"durability": 2}
