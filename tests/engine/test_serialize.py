"""Tests for value/database JSON serialization."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.database import Database
from repro.engine.serialize import (
    SerializeError,
    database_from_json,
    database_to_json,
    declare_relation_from_json,
    load_database,
    relation_schema_to_json,
    save_database,
    value_from_json,
    value_to_json,
)
from repro.engine.workload import hr_database
from repro.optimizer.plan import (
    Difference,
    Intersect,
    Join,
    MapNode,
    Plan,
    Product,
    Project,
    Scan,
    Select,
    Union,
    execute_reference,
)
from repro.types.values import CVBag, CVList, CVSet, Tup, cvbag, cvlist, cvset, tup


class TestValueRoundtrip:
    def test_atoms(self):
        for atom in (5, -2, 1.5, "x", True, False):
            assert value_from_json(value_to_json(atom)) == atom

    def test_bool_survives_int_confusion(self):
        # JSON has no bool-vs-int problem, but Python's bool subclasses
        # int; the tag keeps them apart.
        decoded = value_from_json(value_to_json(True))
        assert decoded is True
        decoded_int = value_from_json(value_to_json(1))
        assert decoded_int == 1 and not isinstance(decoded_int, bool)

    def test_collections(self):
        for value in (
            tup(1, "a"),
            cvset(1, 2),
            cvlist(1, 1, 2),
            cvbag(1, 1, 2),
            cvset(tup(1, cvlist("a")), tup(2, cvlist())),
            cvset(cvset(1), cvset()),
        ):
            assert value_from_json(value_to_json(value)) == value

    def test_bag_multiplicities(self):
        b = cvbag(1, 1, 1, 2)
        decoded = value_from_json(value_to_json(b))
        assert decoded.count(1) == 3

    def test_malformed_rejected(self):
        with pytest.raises(SerializeError):
            value_from_json({"weird": []})
        with pytest.raises(SerializeError):
            value_from_json(None)

    def test_unserializable_rejected(self):
        with pytest.raises(SerializeError):
            value_to_json(object())


nested_values = st.recursive(
    st.one_of(
        st.integers(min_value=-5, max_value=5),
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from(["a", "b"]),
        st.booleans(),
    ),
    lambda children: st.one_of(
        st.frozensets(children, max_size=3).map(CVSet),
        st.lists(children, max_size=3).map(CVList),
        st.lists(children, max_size=3).map(CVBag),
        st.tuples(children, children).map(Tup),
    ),
    max_leaves=8,
)


class TestValueRoundtripProperty:
    @given(nested_values)
    @settings(max_examples=150)
    def test_roundtrip(self, value):
        assert value_from_json(value_to_json(value)) == value

    @given(nested_values)
    @settings(max_examples=200)
    def test_roundtrip_through_json_text(self, value):
        """The payload survives an actual ``json.dumps``/``loads``
        trip, not just the in-memory encoding — this is what the file
        format really exercises (bool-vs-int tags, set ordering,
        bag multiplicity pairs, arbitrary nesting)."""
        text = json.dumps(value_to_json(value))
        assert value_from_json(json.loads(text)) == value


class TestDatabaseRoundtrip:
    def test_hr_database(self, tmp_path):
        db = hr_database(random.Random(0), employees=10, students=6, overlap=2)
        path = tmp_path / "db.json"
        save_database(db, str(path))
        loaded = load_database(str(path))
        assert loaded.relations == db.relations
        assert loaded.catalog["employees"].keys == db.catalog["employees"].keys
        assert (
            loaded.catalog.shared_key_group("students", (0,))
            == db.catalog.shared_key_group("students", (0,))
        )

    def test_plans_agree_after_reload(self, tmp_path):

        db = hr_database(random.Random(1), employees=8, students=5, overlap=1)
        path = tmp_path / "db.json"
        save_database(db, str(path))
        loaded = load_database(str(path))
        text = "pi[1](employees - students)"
        assert db.query(text).value == loaded.query(text).value

    def test_schemaless_relation_roundtrips(self):
        db = Database()
        db["free"] = cvset(tup(1, 2))
        rebuilt = database_from_json(database_to_json(db))
        assert rebuilt["free"] == cvset(tup(1, 2))

    def test_key_violation_detected_on_load(self):
        # Tampered payload violating a declared key is rejected — as a
        # SerializeError: the bytes disagree with their own schema, so
        # callers catch one exception type for "not a database".
        db = Database()
        db.create("k", 2, keys=[(0,)])
        db.insert("k", [(1, "a")])
        payload = database_to_json(db)
        payload["relations"]["k"].append(value_to_json(tup(1, "b")))
        with pytest.raises(SerializeError):
            database_from_json(payload)


# One plan per concrete node type, all over the binary-arity trio a
# reloaded database must answer identically.  Join and MapNode have no
# concrete plan syntax, so this (not the parser round-trip suite) is
# where their serialization coverage lives.
NODE_TYPE_PLANS = (
    Scan("r"),
    Project((1, 0), Scan("r")),
    Select("$1>1", lambda t: t[0] > 1, Scan("r")),
    MapNode("swap", lambda t: Tup((t[1], t[0])), Scan("r"), injective=True),
    Union(Scan("r"), Scan("s")),
    Difference(Scan("r"), Scan("s")),
    Intersect(Scan("r"), Scan("s")),
    Product(Scan("r"), Scan("s")),
    Join(((0, 0), (1, 1)), Scan("r"), Scan("s")),
)


class TestSchemaCodec:
    def test_one_entry_shape_for_checkpoints_and_create_records(
        self, tmp_path
    ):
        from repro.durability import WAL_NAME, DurabilityManager, scan_wal

        db = Database()
        db.durability = DurabilityManager(tmp_path, fsync=False)
        db.create("people", 2, keys=[(0,)], shared_keys={(0,): "ids"})
        info = db.catalog["people"]
        entry = relation_schema_to_json(info)
        assert entry == {
            "arity": 2,
            "keys": [[0]],
            "shared_keys": [{"columns": [0], "group": "ids"}],
        }
        assert database_to_json(db)["schema"]["people"] == entry
        (record,) = scan_wal((tmp_path / WAL_NAME).read_bytes()).records
        assert record.payload == {"name": "people", **entry}
        db.durability.close()
        fresh = Database()
        declare_relation_from_json(fresh, "people", record.payload)
        assert fresh.catalog["people"] == info


class TestDatabaseRoundtripProperty:
    def test_plan_list_covers_every_node_type(self):
        """Completeness guard: a new ``Plan`` subclass must be added
        to ``NODE_TYPE_PLANS`` (or this fails and says so)."""
        covered = set()
        stack = list(NODE_TYPE_PLANS)
        while stack:
            node = stack.pop()
            covered.add(type(node).__name__)
            stack.extend(node.children())
        missing = {c.__name__ for c in Plan.__subclasses__()} - covered
        assert not missing, f"NODE_TYPE_PLANS misses plan node types: {missing}"

    @pytest.mark.parametrize("seed", range(25))
    def test_random_database_execution_agrees_after_reload(self, seed, tmp_path):
        """Save/load preserves not just the relation values but the
        whole execution surface: every plan node type produces the
        same value, work, and per-node ledger on the reloaded copy."""
        rng = random.Random(4200 + seed)
        db = Database()
        for name in ("r", "s"):
            db.create(name, 2)
            rows = {
                (rng.randrange(5), rng.randrange(5))
                for _ in range(rng.randint(0, 12))
            }
            db.insert(name, sorted(rows))
        path = tmp_path / "db.json"
        save_database(db, str(path))
        loaded = load_database(str(path))
        assert loaded.relations == db.relations
        for plan in NODE_TYPE_PLANS:
            want = execute_reference(plan, db.relations)
            got = execute_reference(plan, loaded.relations)
            assert got.value == want.value
            assert got.work == want.work
            assert got.per_node == want.per_node


# Malformed payloads that must raise SerializeError — never a bare
# KeyError/TypeError/ValueError.  One entry per distinct failure shape.
MALFORMED_VALUE_PAYLOADS = (
    {"x": 1},                        # unknown tag
    {"t": 1, "s": 2},                # multiple tags
    {"t": 5},                        # tuple items not a list
    {"s": "abc"},                    # set items not a list
    {"l": {"a": 1}},                 # list items not a list
    {"m": 5},                        # bag entries not a list
    {"m": [[1]]},                    # bag entry not a pair
    {"m": [[1, 2, 3]]},              # bag entry too long
    {"m": [[1, "two"]]},             # non-int multiplicity
    {"m": [[1, 1.5]]},               # float multiplicity
    {"m": [[1, -1]]},                # negative multiplicity
    {"m": [[1, True]]},              # bool multiplicity
    None,                            # not a value at all
    [1, 2],                          # bare list is not an encoding
)

MALFORMED_DATABASE_PAYLOADS = (
    ["not", "a", "dict"],                                  # not an object
    {"schema": ["r"]},                                     # schema not a dict
    {"schema": {"r": "two"}},                              # info not a dict
    {"schema": {"r": {}}},                                 # arity missing
    {"schema": {"r": {"arity": "2"}}},                     # arity not an int
    {"schema": {"r": {"arity": True}}},                    # bool arity
    {"schema": {"r": {"arity": -1}}},                      # negative arity
    {"schema": {"r": {"arity": 2, "keys": 5}}},            # keys not a list
    {"schema": {"r": {"arity": 2,
                      "shared_keys": [{"columns": [0]}]}}},  # group missing
    {"schema": {"r": {"arity": 2, "keys": [[5]]}}},        # key outside the arity
    {"schema": {"r": {"arity": 2, "shared_keys": [
        {"columns": [-1], "group": "g"}]}}},               # shared key outside it
    {"relations": "r"},                                    # relations not a dict
    {"relations": {"r": {"t": [1]}}},                      # rows not a list
    {"schema": {"r": {"arity": 2}},
     "relations": {"r": [{"t": [1]}]}},                    # arity mismatch
    {"schema": {"r": {"arity": 2}},
     "relations": {"r": [5]}},                             # atom row in schema'd relation
    {"relations": {"r": [{"q": []}]}},                     # unknown value kind
)


class TestMalformedInputs:
    """Satellite: every malformed input raises SerializeError."""

    @pytest.mark.parametrize("payload", MALFORMED_VALUE_PAYLOADS,
                             ids=[repr(p) for p in MALFORMED_VALUE_PAYLOADS])
    def test_malformed_value_payloads(self, payload):
        with pytest.raises(SerializeError):
            value_from_json(payload)

    @pytest.mark.parametrize(
        "payload", MALFORMED_DATABASE_PAYLOADS,
        ids=[json.dumps(p, sort_keys=True)[:60]
             for p in MALFORMED_DATABASE_PAYLOADS])
    def test_malformed_database_payloads(self, payload):
        with pytest.raises(SerializeError):
            database_from_json(payload)

    def test_invalid_json_file_raises_serialize_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"relations": {"r": [')
        with pytest.raises(SerializeError):
            load_database(str(path))

    def test_truncated_valid_json_raises_serialize_error(self, tmp_path):
        # Valid JSON that is not a database payload (the shape a
        # pre-atomic-save crash could have left behind).
        path = tmp_path / "half.json"
        path.write_text("[1, 2]")
        with pytest.raises(SerializeError):
            load_database(str(path))

    def test_missing_file_stays_oserror(self, tmp_path):
        # Environmental problems are not format problems.
        with pytest.raises(OSError):
            load_database(str(tmp_path / "absent.json"))


class TestAtomicSave:
    """Satellite: save_database publishes atomically."""

    def test_failure_between_write_and_replace_preserves_old(
        self, tmp_path, monkeypatch
    ):
        import os as os_module

        db = Database()
        db.create("r", 2)
        db.insert("r", [(1, 2)])
        path = tmp_path / "db.json"
        save_database(db, str(path))
        before = path.read_text()

        db.insert("r", [(3, 4)])

        def exploding_replace(src, dst):
            raise OSError("injected crash between write and replace")

        monkeypatch.setattr(os_module, "os_replace_never", None,
                            raising=False)
        monkeypatch.setattr("os.replace", exploding_replace)
        with pytest.raises(OSError, match="injected crash"):
            save_database(db, str(path))
        monkeypatch.undo()

        # The published snapshot is byte-for-byte the old one, and the
        # failed attempt's temp file was cleaned up.
        assert path.read_text() == before
        assert [p.name for p in tmp_path.iterdir()] == ["db.json"]
        assert load_database(str(path)).relations == {
            "r": CVSet([Tup((1, 2))])
        }

    def test_save_fsyncs_before_replace(self, tmp_path, monkeypatch):
        import os as os_module

        order = []
        real_fsync = os_module.fsync
        real_replace = os_module.replace
        monkeypatch.setattr(
            "os.fsync", lambda fd: (order.append("fsync"), real_fsync(fd))[1]
        )
        monkeypatch.setattr(
            "os.replace",
            lambda s, d: (order.append("replace"), real_replace(s, d))[1],
        )
        db = Database()
        db.create("r", 1)
        save_database(db, str(tmp_path / "db.json"))
        assert "fsync" in order and "replace" in order
        assert order.index("fsync") < order.index("replace")

    def test_temp_file_written_to_same_directory(self, tmp_path, monkeypatch):
        # os.replace is only atomic within one filesystem; the temp
        # file must be a sibling of the target.
        import os as os_module

        seen = {}
        real_replace = os_module.replace

        def spying_replace(src, dst):
            seen["src_dir"] = os_module.path.dirname(src)
            seen["dst_dir"] = os_module.path.dirname(dst)
            return real_replace(src, dst)

        monkeypatch.setattr("os.replace", spying_replace)
        db = Database()
        db.create("r", 1)
        save_database(db, str(tmp_path / "db.json"))
        assert seen["src_dir"] == seen["dst_dir"]
