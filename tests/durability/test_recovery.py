"""Recovery end-to-end: checkpoint + committed replay rebuilds the
exact database — relations, catalog, generation, fingerprints — and
the report/span/counter surfaces say what happened.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.durability import (
    WAL_NAME,
    DurabilityManager,
    WalError,
    WalRecord,
    apply_record,
    load_checkpoint,
    recover,
    replay_records,
    write_checkpoint,
)
from repro.engine.database import Database
from repro.engine.serialize import SerializeError, database_to_json
from repro.obs.metrics import REGISTRY, snapshot_delta
from repro.obs.trace import Tracer
from repro.types.values import cvset, tup


def digest(db: Database) -> tuple:
    return (
        json.dumps(database_to_json(db), sort_keys=True),
        db._generation,
        tuple(sorted((n, db.fingerprint(n)) for n in db.relations)),
    )


@pytest.fixture()
def state(tmp_path):
    return str(tmp_path / "state")


def durable_db(state, **kwargs) -> Database:
    db = Database()
    db.durability = DurabilityManager(state, fsync=False, **kwargs)
    return db


class TestRecoverEndToEnd:
    def test_empty_directory_recovers_empty_database(self, state):
        db, report = recover(state)
        assert db.relations == {}
        assert not report.checkpoint_loaded
        assert report.records_scanned == report.replayed == 0
        assert report.generation == 0

    def test_full_mutation_surface_replayed(self, state):
        live = durable_db(state)
        live.create("people", 2, keys=[(0,)],
                    shared_keys={(0,): "person-ids"})
        live.insert("people", [(1, "ada"), (2, "bob")])
        live.create("log", 2)
        live.insert("log", [(1, "a"), (1, "a")])  # keyless duplicates
        live["free"] = cvset(tup(7, 8))
        live.insert("people", [(3, "eve")])

        recovered, report = recover(state)
        assert digest(recovered) == digest(live)
        assert tuple(recovered.catalog["people"].keys) == ((0,),)
        assert (
            recovered.catalog.shared_key_group("people", (0,))
            == "person-ids"
        )
        assert report.replayed == 6
        assert report.dropped_uncommitted == 0
        assert not report.torn_tail and not report.corrupt

    def test_checkpoint_bounds_replay(self, state):
        live = durable_db(state)
        live.create("r", 1)
        live.insert("r", [(1,)])
        live.durability.checkpoint(live)
        live.insert("r", [(2,)])

        recovered, report = recover(state)
        assert digest(recovered) == digest(live)
        assert report.checkpoint_loaded
        assert report.checkpoint_lsn > 0
        assert report.replayed == 1  # only the post-checkpoint insert

    def test_attach_to_populated_database_checkpoints_first(self, state):
        # Pre-attach state exists only in memory; without the
        # attach-time checkpoint, replay would hit an insert into a
        # relation the empty base never created.
        live = Database()
        live.create("r", 1)
        live.insert("r", [(1,)])
        live.durability = DurabilityManager(state, fsync=False)
        live.insert("r", [(2,)])

        recovered, report = recover(state)
        assert digest(recovered) == digest(live)
        assert report.checkpoint_loaded
        assert report.replayed == 1  # only the post-attach insert

    def test_attach_to_empty_database_writes_no_checkpoint(self, state):
        db = durable_db(state)
        assert not os.path.exists(os.path.join(state, "checkpoint.json"))
        db.create("r", 1)

    def test_checkpoint_every_policy(self, state):
        live = durable_db(state, checkpoint_every=2)
        live.create("r", 1)
        live.insert("r", [(1,)])  # second mutation: checkpoint fires
        live.insert("r", [(2,)])
        assert os.path.exists(os.path.join(state, "checkpoint.json"))
        recovered, report = recover(state)
        assert digest(recovered) == digest(live)
        assert report.checkpoint_loaded

    def test_uncommitted_record_dropped(self, state):
        live = durable_db(state)
        live.create("r", 1)
        live.insert("r", [(1,)])
        before = digest(live)
        # A data record whose commit marker never made it: the model
        # of a crash between the two appends.
        live.durability.wal.append(
            "insert", {"name": "r", "rows": [{"t": [2]}]},
            live._generation + 1,
        )
        live.durability.wal.sync()
        live.durability.close()

        recovered, report = recover(state)
        assert digest(recovered) == before
        assert report.dropped_uncommitted == 1

    def test_stale_wal_after_checkpoint_race_is_filtered(self, state):
        # Crash between checkpoint publication and WAL reset: every
        # WAL record is already inside the snapshot, so replay must
        # skip them all (by LSN), not double-apply.
        live = durable_db(state)
        live.create("r", 1)
        live.insert("r", [(1,)])
        write_checkpoint(state, live, lsn=live.durability.wal.last_lsn)
        # ... and the process dies before wal.reset().

        recovered, report = recover(state)
        assert digest(recovered) == digest(live)
        assert report.checkpoint_loaded
        assert report.replayed == 0
        assert report.skipped_stale == 2  # create + insert, both stale

    def test_generation_and_memo_keys_survive(self, state):
        live = durable_db(state)
        live.create("r", 2)
        live.insert("r", [(1, 2)])
        live["r"] = cvset(tup(3, 4))
        recovered, _ = recover(state)
        assert recovered._generation == live._generation
        assert recovered.fingerprint("r") == live.fingerprint("r")

    def test_counters_and_tracer(self, state):
        live = durable_db(state)
        live.create("r", 1)
        live.insert("r", [(1,)])
        tracer = Tracer()
        before = REGISTRY.snapshot()
        recover(state, tracer=tracer)
        delta = snapshot_delta(REGISTRY.snapshot(), before)["counters"]
        assert delta["robustness.wal.recoveries"] == 1
        assert delta["robustness.wal.records_replayed"] == 2
        root = tracer.last
        assert root.label == "recover"
        assert [c.label for c in root.children] == [
            "checkpoint", "scan", "replay",
        ]

    def test_report_render_and_to_dict(self, state):
        live = durable_db(state)
        live.create("r", 1)
        live.insert("r", [(1,)])
        _, report = recover(state)
        text = report.render()
        for needle in ("recover", "checkpoint", "scan", "replay",
                       "record(s) scanned"):
            assert needle in text
        payload = report.to_dict()
        assert payload["replayed"] == 2
        assert payload["directory"] == state
        json.dumps(payload)  # JSON-safe for --json CLI output


class TestReplayErrors:
    def test_unknown_kind_is_a_logging_bug(self):
        db = Database()
        rec = WalRecord(1, "commit", 0, {"of": 1, "name": "x"})
        with pytest.raises(WalError, match="cannot replay record kind"):
            apply_record(db, rec)

    def test_unreplayable_payload_wrapped(self):
        db = Database()
        rec = WalRecord(1, "insert", 1, {"name": "ghost", "rows": []})
        with pytest.raises(WalError, match="unreplayable insert"):
            apply_record(db, rec)

    def test_generation_mismatch_detected(self):
        db = Database()
        db.create("r", 1)
        rec = WalRecord(2, "insert", 99, {"name": "r", "rows": [{"t": [1]}]})
        with pytest.raises(WalError, match="generation mismatch"):
            apply_record(db, rec)

    def test_replay_records_lsn_filter(self):
        db = Database()
        recs = [
            WalRecord(1, "create",
                      0, {"name": "r", "arity": 1, "keys": [],
                          "shared_keys": []}),
            WalRecord(3, "insert", 1, {"name": "r", "rows": [{"t": [1]}]}),
        ]
        db.create("r", 1)  # lsn 1 already inside the "snapshot"
        replayed, skipped = replay_records(db, recs, after_lsn=1)
        assert (replayed, skipped) == (1, 1)
        assert db["r"] == cvset(tup(1))


class TestCheckpointFile:
    def test_missing_returns_none(self, tmp_path):
        assert load_checkpoint(tmp_path) is None

    @pytest.mark.parametrize(
        "text",
        [
            "{not json",
            "[1, 2]",
            '{"format": 99, "lsn": 0, "generation": 0, "database": {}}',
            '{"format": 1, "lsn": "0", "generation": 0, "database": {}}',
            '{"format": 1, "lsn": 0, "generation": true, "database": {}}',
            '{"format": 1, "lsn": 0, "generation": 0}',
        ],
    )
    def test_malformed_checkpoint_raises_serialize_error(
        self, tmp_path, text
    ):
        (tmp_path / "checkpoint.json").write_text(text)
        with pytest.raises(SerializeError):
            load_checkpoint(tmp_path)

    def test_write_is_atomic_against_replace_failure(
        self, tmp_path, monkeypatch
    ):
        db = Database()
        db.create("r", 1)
        db.insert("r", [(1,)])
        write_checkpoint(tmp_path, db, lsn=2)
        before = (tmp_path / "checkpoint.json").read_text()
        db.insert("r", [(2,)])
        monkeypatch.setattr(
            "os.replace",
            lambda s, d: (_ for _ in ()).throw(OSError("injected")),
        )
        with pytest.raises(OSError, match="injected"):
            write_checkpoint(tmp_path, db, lsn=4)
        monkeypatch.undo()
        assert (tmp_path / "checkpoint.json").read_text() == before
        loaded, lsn = load_checkpoint(tmp_path)
        assert lsn == 2 and loaded["r"] == cvset(tup(1))

    def test_wal_name_constant_matches_manager_layout(self, tmp_path):
        db = Database()
        db.durability = DurabilityManager(tmp_path / "s", fsync=False)
        db.create("r", 1)
        assert os.path.exists(tmp_path / "s" / WAL_NAME)
