"""Tests for the in-memory database engine."""

import pytest

from repro.engine.database import Database, SchemaError
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


class TestOperations:
    def test_active_domain(self, db):
        assert db.active_domain() == frozenset({1, 2, "ada", "bob"})

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
        assert (0,) in db._eq_indexes.get("people", {})
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

    def test_active_domain_incremental(self, db):
        assert db.active_domain() == frozenset({1, 2, "ada", "bob"})
        db.insert("people", [(3, "cyd")])
        assert db.active_domain() == frozenset({1, 2, 3, "ada", "bob", "cyd"})
        db["people"] = cvset(tup(9, "zoe"))
        assert db.active_domain() == frozenset({9, "zoe"})

    def test_equality_index_maintained_on_insert(self, db):
        index = db.equality_index("people", (0,))
        assert set(index) == {(1,), (2,)}
        db.insert("people", [(3, "cyd")])
        assert set(db.equality_index("people", (0,))) == {(1,), (2,), (3,)}

    def test_fingerprint_changes_with_content(self, db):
        before = db.fingerprint("people")
        db.insert("people", [(3, "cyd")])
        assert db.fingerprint("people") != before

    def test_distincts_refreshed_on_insert(self, small_db):
        db = small_db
        assert db.column_distincts("r") == {0: 3, 1: 3}
        db.insert("r", [(9, 2)])  # new col-0 value, old col-1 value
        assert db.column_distincts("r") == {0: 4, 1: 3}

    def test_relation_weight_incremental(self, db):
        assert db.relation_weight("people") == 4
        db.insert("people", [(3, "cyd")])
        assert db.relation_weight("people") == 6


class TestIndexScoping:
    """Insert-time index maintenance touches only the inserted
    relation's indexes (PR 2)."""

    def test_insert_updates_only_target_relation_index(self, db):
        db.create("log", 2)
        db.insert("log", [(1, "a")])
        db.equality_index("log", (0,))
        log_index_before = {
            k: list(v) for k, v in db.equality_index("log", (0,)).items()
        }
        db.insert("people", [(3, "cyd")])
        assert {
            k: list(v) for k, v in db.equality_index("log", (0,)).items()
        } == log_index_before
        assert (3,) in db.equality_index("people", (0,))

    def test_insert_never_reads_other_relations_indexes(self, db):
        db.create("log", 2)

        class Poison(dict):
            def items(self):
                raise AssertionError(
                    "insert iterated another relation's indexes"
                )

        db._eq_indexes["log"] = Poison()
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


class TestUnknownRelationIndexProbe:
    """``equality_index`` on an unknown name must not cache a
    stale-empty index (the create-after-probe regression)."""

    def test_probe_before_create_returns_empty_uncached(self):
        d = Database()
        index = d.equality_index("ghost", (0,))
        assert index == {}
        assert "ghost" not in d._eq_indexes

    def test_create_after_probe_sees_fresh_rows(self):
        d = Database()
        d.equality_index("late", (0,))  # probe while unknown
        d.create("late", 2)
        d.insert("late", [(1, "a"), (2, "b")])
        assert set(d.equality_index("late", (0,))) == {(1,), (2,)}

    def test_stale_empty_index_no_longer_possible_via_direct_assignment(self):
        d = Database()
        d.equality_index("late", (0,))
        # Even a raw relations-dict write (bypassing __setitem__'s
        # invalidation) can't be shadowed by a pre-create cached index.
        d.relations["late"] = cvset(tup(1, "a"))
        assert set(d.equality_index("late", (0,))) == {(1,)}

    def test_probe_does_not_grow_index_table(self):
        d = Database()
        for i in range(50):
            d.equality_index(f"ghost{i}", (0,))
        assert d._eq_indexes == {}


class TestWholesaleReplacement:
    """``db[name] = ...`` must drop every memo keyed on the relation:
    widths, distincts, cached results, compiled artifacts."""

    def _plan(self):
        return Project((0,), Scan("people"))

    def test_widths_recomputed_from_new_contents(self, db):
        assert db.relation_width("people") == 2
        db["people"] = cvset(tup(1, 2, 3))
        assert db.relation_width("people") == 3

    def test_distincts_recomputed(self, db):
        assert db.column_distincts("people") == {0: 2, 1: 2}
        db["people"] = cvset(tup(1, "x"), tup(1, "y"))
        assert db.column_distincts("people") == {0: 1, 1: 2}

    def test_result_cache_invalidated_across_generations(self, db):
        plan = self._plan()
        first = db.run(plan)
        db["people"] = cvset(tup(9, "zoe"))
        second = db.run(plan)
        assert second.value == cvset(tup(9))
        assert second.value != first.value

    def test_compiled_artifact_invalidated(self, db):
        plan = self._plan()
        db.run(plan, mode="compiled", use_cache=False)
        puts_before = db.plan_cache.compiled_puts
        assert puts_before >= 1
        db.run(plan, mode="compiled", use_cache=False)
        assert db.plan_cache.compiled_puts == puts_before  # artifact hit
        db["people"] = cvset(tup(9, "zoe"))
        result = db.run(plan, mode="compiled", use_cache=False)
        # Replacement dropped the artifact: a fresh compile happened,
        # and the recompiled program reads the new contents.
        assert db.plan_cache.compiled_puts == puts_before + 1
        assert result.value == cvset(tup(9))

    def test_generation_bumped_per_replacement(self, db):
        generation = db._generation
        db["people"] = cvset(tup(9, "zoe"))
        db["people"] = cvset(tup(8, "amy"))
        assert db._generation == generation + 2
