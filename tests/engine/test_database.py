"""Tests for the in-memory database engine."""

import pytest

from repro.durability import WAL_NAME, DurabilityManager, WalError, recover
from repro.engine.database import Database, SchemaError
from repro.optimizer.constraints import RelationInfo
from repro.optimizer.plan import Project, Scan
from repro.types.values import CVSet, cvset, tup


@pytest.fixture()
def db():
    d = Database()
    d.create("people", 2, keys=[(0,)])
    d.insert("people", [(1, "ada"), (2, "bob")])
    return d


class TestSchema:
    def test_create_and_insert(self, db):
        assert len(db["people"]) == 2
        assert tup(1, "ada") in db["people"]

    def test_unknown_relation_rejected(self, db):
        with pytest.raises(SchemaError):
            db.insert("ghost", [(1, "x")])

    def test_arity_enforced(self, db):
        with pytest.raises(SchemaError):
            db.insert("people", [(1,)])

    def test_key_enforced(self, db):
        with pytest.raises(SchemaError):
            db.insert("people", [(1, "eve")])  # duplicate key, new tuple

    def test_idempotent_reinsert_ok(self, db):
        db.insert("people", [(1, "ada")])  # same tuple: no violation
        assert len(db["people"]) == 2

    def test_keyless_relation_allows_duplicates(self):
        d = Database()
        d.create("log", 2)
        d.insert("log", [(1, "a"), (1, "b")])
        assert len(d["log"]) == 2


class TestRedeclaration:
    """``create`` on a declared relation must repeat its declaration:
    the rows already there were validated against it."""

    @pytest.mark.parametrize(
        "rows, redeclare",
        [
            ([(1, 2)], {"arity": 3}),
            ([(1, 2), (1, 3)], {"arity": 2, "keys": [(0,)]}),
        ],
        ids=["arity", "keys"],
    )
    def test_different_declaration_rejected(self, tmp_path, rows, redeclare):
        state = tmp_path / "state"
        d = Database()
        d.durability = DurabilityManager(state, fsync=False)
        d.create("r", 2)
        d.insert("r", rows)
        before, info = d["r"], d.catalog["r"]
        logged = (state / WAL_NAME).read_bytes()
        with pytest.raises(SchemaError, match="already declared"):
            d.create("r", **redeclare)
        assert d["r"] is before
        assert d.catalog["r"] is info
        assert (state / WAL_NAME).read_bytes() == logged
        # The old declaration still governs inserts.
        with pytest.raises(SchemaError):
            d.insert("r", [(4, 5, 6)])
        d.insert("r", [(9, 9)])
        d.durability.close()
        recovered, _ = recover(state)
        assert recovered["r"] == d["r"]
        assert recovered.catalog["r"] == info

    def test_identical_redeclaration_accepted(self, tmp_path):
        state = tmp_path / "state"
        d = Database()
        d.durability = DurabilityManager(state, fsync=False)
        d.create("r", 2, keys=[(0,)], shared_keys={(0,): "id"})
        d.insert("r", [(1, 2)])
        d.create("r", 2, keys=[(0,)], shared_keys={(0,): "id"})
        assert d["r"] == cvset(tup(1, 2))
        with pytest.raises(SchemaError):
            d.insert("r", [(1, 3)])
        d.durability.close()
        recovered, _ = recover(state)
        assert recovered["r"] == d["r"]
        assert recovered.catalog["r"] == d.catalog["r"]


class TestSchemaValidation:
    """``create`` refuses a schema no row could satisfy, before anything
    is logged or changed."""

    @pytest.mark.parametrize(
        "arity, keys, shared_keys",
        [
            (2, [(5,)], None),
            (2, [(-1,)], None),
            (2, [(0, 2)], None),
            (3, (), {(7,): "ssn"}),
            (-1, (), None),
            ("2", (), None),
        ],
        ids=["key-past-arity", "negative-key", "one-column-out",
             "shared-key", "negative-arity", "string-arity"],
    )
    def test_out_of_range_schema_rejected(
        self, tmp_path, arity, keys, shared_keys
    ):
        state = tmp_path / "state"
        d = Database()
        d.durability = DurabilityManager(state, fsync=False)
        d.create("s", 1)
        d.insert("s", [(1,)])
        relations, catalog = dict(d.relations), dict(d.catalog.relations)
        logged = (state / WAL_NAME).read_bytes()
        with pytest.raises(SchemaError, match="column outside|arity of r"):
            d.create("r", arity, keys=keys, shared_keys=shared_keys)
        assert "r" not in d.catalog and "r" not in d
        assert d.relations == relations
        assert dict(d.catalog.relations) == catalog
        assert (state / WAL_NAME).read_bytes() == logged
        d.durability.close()
        recovered, _ = recover(state)
        assert set(recovered.relations) == {"s"}

    def test_empty_arity_and_empty_key_accepted(self):
        d = Database()
        d.create("unit", 0)
        d.insert("unit", [()])
        assert d["unit"] == cvset(tup())
        d.create("single", 2, keys=[()])
        d.insert("single", [(1, 2)])
        with pytest.raises(SchemaError):
            d.insert("single", [(3, 4)])

    def test_recovery_refuses_a_logged_out_of_range_key(self, tmp_path):
        """A log holding such a schema (written before ``create`` checked
        it) stops recovery instead of rebuilding a relation that can
        never take a row."""
        state = tmp_path / "state"
        manager = DurabilityManager(state, fsync=False)
        manager.log_create(RelationInfo("r", 2, ((5,),)), 0)
        manager.close()
        with pytest.raises(WalError, match="column outside"):
            recover(state)


class TestOperations:
    def test_run_plan(self, db):
        result = db.run(Project((1,), Scan("people")))
        assert result.value == cvset(tup("ada"), tup("bob"))

    def test_contains_and_setitem(self, db):
        assert "people" in db
        db["extra"] = cvset(tup(9, "x"))
        assert "extra" in db

    def test_snapshot_is_shallow_copy(self, db):
        snap = db.snapshot()
        db["people"] = CVSet()
        assert len(snap["people"]) == 2

    def test_repr(self, db):
        assert "people[2]" in repr(db)

    def test_signature_defaults_to_standard(self, db):
        assert "even" in db.signature

    def test_query_text(self, db):
        result = db.query("pi[2](people)")
        assert result.value == cvset(tup("ada"), tup("bob"))

    def test_query_text_optimized(self, db):
        plain = db.query("pi[1](people U people)")
        optimized = db.query("pi[1](people U people)", optimize=True)
        assert plain.value == optimized.value


class TestIncrementalMaintenance:
    """Physical state maintained incrementally on insert (PR 1)."""

    def test_key_validated_incrementally_against_index(self, db):
        # Index exists after the first validated insert...
        db.insert("people", [(3, "cyd")])
        assert (0,) in db._key_indexes.get("people", {})
        # ...and a conflicting batch is rejected without mutating.
        with pytest.raises(SchemaError):
            db.insert("people", [(4, "dan"), (3, "not-cyd")])
        assert len(db["people"]) == 3

    def test_batch_internal_key_conflict_rejected(self, db):
        with pytest.raises(SchemaError):
            db.insert("people", [(7, "x"), (7, "y")])
        assert len(db["people"]) == 2

    def test_setitem_violation_caught_on_next_insert(self, db):
        from repro.types.values import CVSet
        from repro.types.values import tup as t
        db["people"] = CVSet([t(1, "ada"), t(1, "imposter")])
        with pytest.raises(SchemaError):
            db.insert("people", [(5, "eve")])

    def test_setitem_violation_refuses_every_later_insert(self, tmp_path):
        """A key-violating replacement is never indexed: the second
        insert raises like the first, and nothing reaches the WAL."""
        state = tmp_path / "state"
        d = Database()
        d.durability = DurabilityManager(state, fsync=False)
        d.create("people", 2, keys=[(0,)])
        broken = cvset(tup(1, "ada"), tup(1, "imposter"))
        d["people"] = broken
        logged = (state / WAL_NAME).read_bytes()
        for row in [(5, "eve"), (6, "fay")]:
            with pytest.raises(SchemaError, match="violated"):
                d.insert("people", [row])
        assert d["people"] == broken
        assert (state / WAL_NAME).read_bytes() == logged
        d["people"] = cvset(tup(1, "ada"))
        d.insert("people", [(5, "eve")])
        d.insert("people", [(6, "fay")])
        assert d["people"] == cvset(
            tup(1, "ada"), tup(5, "eve"), tup(6, "fay")
        )

    def test_key_index_maintained_on_insert(self, db):
        db.insert("people", [(3, "cyd")])
        assert db._key_indexes["people"][(0,)] == {
            (1,): tup(1, "ada"), (2,): tup(2, "bob"), (3,): tup(3, "cyd"),
        }

    def test_fingerprint_changes_with_content(self, db):
        before = db.fingerprint("people")
        db.insert("people", [(3, "cyd")])
        assert db.fingerprint("people") != before

    def test_relation_weight_incremental(self, db):
        assert db.relation_stats("people")[0] == 4
        db.insert("people", [(3, "cyd")])
        assert db.relation_stats("people")[0] == 6


class TestIndexScoping:
    """Insert-time index maintenance touches only the inserted
    relation's indexes (PR 2)."""

    def test_insert_updates_only_target_relation_index(self, db):
        db.create("log", 2, keys=[(0,)])
        db.insert("log", [(1, "a")])
        log_index_before = dict(db._key_indexes["log"][(0,)])
        db.insert("people", [(3, "cyd")])
        assert db._key_indexes["log"][(0,)] == log_index_before
        assert (3,) in db._key_indexes["people"][(0,)]

    def test_insert_never_reads_other_relations_indexes(self, db):
        db.create("log", 2, keys=[(0,)])

        class Poison(dict):
            def items(self):
                raise AssertionError(
                    "insert iterated another relation's indexes"
                )

        db._key_indexes["log"] = Poison()
        db.insert("people", [(4, "dan")])  # must not touch log's indexes
        assert tup(4, "dan") in db["people"]


class TestWidthSeeding:
    """Width caching must survive the empty-relation window (the
    ``_widths[name] = None`` poisoning regression)."""

    def test_create_seeds_width_with_declared_arity(self):
        d = Database()
        d.create("r", 3)
        assert d.relation_width("r") == 3

    def test_width_queried_while_empty_not_poisoned_by_insert(self):
        d = Database()
        d.create("r", 2)
        # Query the width during the empty window; then populate.
        assert d.relation_width("r") == 2
        d.insert("r", [(1, 2), (3, 4)])
        assert d.relation_width("r") == 2  # regression: was None forever

    def test_width_after_empty_wholesale_replacement(self):
        d = Database()
        d.create("r", 2)
        d["r"] = CVSet()  # drops the seeded width
        assert d.relation_width("r") is None  # measured while empty
        d.insert("r", [(5, 6)])
        assert d.relation_width("r") == 2  # un-poisoned by the insert

    def test_genuinely_mixed_width_still_none(self):
        d = Database()
        d.create("r", 2)
        d["r"] = cvset(tup(1, 2, 3))  # arity-3 rows smuggled in
        assert d.relation_width("r") == 3
        d.insert("r", [(7, 8)])  # arity-2 per the declared schema
        assert d.relation_width("r") is None  # now truly mixed

    def test_batch_weight_accounting_uses_seeded_width(self):
        d = Database()
        d.create("r", 2)
        assert d.relation_width("r") == 2
        d.insert("r", [(1, 2), (2, 3)])
        assert d.relation_stats("r") == (4, 2)


class TestWholesaleReplacement:
    """``db[name] = ...`` must drop every memo keyed on the relation:
    widths (which weigh it), key indexes and cached results; a compiled
    run reads the new contents."""

    def _plan(self):
        return Project((0,), Scan("people"))

    def test_widths_recomputed_from_new_contents(self, db):
        assert db.relation_width("people") == 2
        db["people"] = cvset(tup(1, 2, 3))
        assert db.relation_width("people") == 3

    def test_weights_recomputed_from_new_contents(self, db):
        assert db.relation_stats("people")[0] == 4
        db["people"] = cvset(tup(1, 2, 3))
        assert db.relation_stats("people")[0] == 3

    def test_result_cache_invalidated_across_generations(self, db):
        plan = self._plan()
        first = db.run(plan)
        db["people"] = cvset(tup(9, "zoe"))
        second = db.run(plan)
        assert second.value == cvset(tup(9))
        assert second.value != first.value

    def test_compiled_artifact_invalidated(self, db):
        plan = self._plan()
        first = db.run(plan, mode="compiled", use_cache=False)
        db["people"] = cvset(tup(9, "zoe"))
        result = db.run(plan, mode="compiled", use_cache=False)
        # The rerun lowers the plan again over the new contents.
        assert result.value == cvset(tup(9))
        assert result.value != first.value

    def test_generation_bumped_per_replacement(self, db):
        generation = db._generation
        db["people"] = cvset(tup(9, "zoe"))
        db["people"] = cvset(tup(8, "amy"))
        assert db._generation == generation + 2
