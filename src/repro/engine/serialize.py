"""JSON (de)serialization for complex values and databases.

Complex values are not plain JSON (sets and bags have no JSON
counterpart; tuples and lists must stay distinct), so values are
encoded as tagged nodes::

    5                      atoms (int/str/float) encode as themselves
    {"b": true}            bool atoms are tagged to survive int/bool
    {"t": [...]}           tuple
    {"s": [...]}           set
    {"l": [...]}           list
    {"m": [[v, n], ...]}   bag (multiplicities)

A :class:`~repro.engine.database.Database` serializes to a dict of
relations plus its schema catalog, enabling save/load of experiment
workloads.  Each relation's schema entry is
``{"arity": A, "keys": [[c, ...], ...], "shared_keys": [{"columns":
[c, ...], "group": G}, ...]}``, written by
:func:`relation_schema_to_json` and read back by
:func:`declare_relation_from_json`; checkpoints and the write-ahead
log's ``create`` records use the same pair.

Error contract: every malformed input — undecodable JSON, an unknown
value tag, a bag entry that is not a ``[value, count]`` pair, a schema
whose arity is missing or non-integral or whose key names a column
outside it, a row violating its declared arity or key — raises :class:`SerializeError`, never a bare
``KeyError``/``TypeError``/``ValueError``.  Callers get one exception
type to catch for "these bytes are not a database".

Write contract: :func:`save_database` (and the durability subsystem's
checkpoints, via :func:`atomic_write_text`) publishes atomically —
same-directory temp file, flush + fsync, ``os.replace`` — so a crash
mid-save can truncate only the temp file, never the snapshot a reader
will open.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any

from ..types.values import CVBag, CVList, CVSet, Tup, Value, is_atom
from ..optimizer.constraints import RelationInfo
from .database import Database, SchemaError

__all__ = [
    "value_to_json",
    "value_from_json",
    "database_to_json",
    "database_from_json",
    "declare_relation_from_json",
    "relation_schema_to_json",
    "save_database",
    "load_database",
    "atomic_write_text",
    "SerializeError",
]


class SerializeError(Exception):
    """Raised on unserializable or malformed payloads."""


def value_to_json(v: Value) -> Any:
    """Encode a complex value as a JSON-compatible structure."""
    if isinstance(v, bool):
        return {"b": v}
    if is_atom(v):
        return v
    if isinstance(v, Tup):
        return {"t": [value_to_json(x) for x in v]}
    if isinstance(v, CVSet):
        return {"s": sorted((value_to_json(x) for x in v), key=repr)}
    if isinstance(v, CVList):
        return {"l": [value_to_json(x) for x in v]}
    if isinstance(v, CVBag):
        return {
            "m": sorted(
                ([value_to_json(x), v.count(x)] for x in v.support()),
                key=repr,
            )
        }
    raise SerializeError(f"not a complex value: {v!r}")


def _tagged_items(data: dict, tag: str) -> list:
    items = data[tag]
    if not isinstance(items, list):
        raise SerializeError(
            f"malformed {tag!r} payload: expected a list, got {items!r}"
        )
    return items


def value_from_json(data: Any) -> Value:
    """Decode the tagged representation back to a complex value."""
    if isinstance(data, (int, float, str)) and not isinstance(data, bool):
        return data
    if isinstance(data, dict):
        if set(data) == {"b"}:
            return bool(data["b"])
        if set(data) == {"t"}:
            return Tup(value_from_json(x) for x in _tagged_items(data, "t"))
        if set(data) == {"s"}:
            return CVSet(value_from_json(x) for x in _tagged_items(data, "s"))
        if set(data) == {"l"}:
            return CVList(
                value_from_json(x) for x in _tagged_items(data, "l")
            )
        if set(data) == {"m"}:
            items = []
            for entry in _tagged_items(data, "m"):
                if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                    raise SerializeError(f"malformed bag entry: {entry!r}")
                value, count = entry
                if (
                    not isinstance(count, int)
                    or isinstance(count, bool)
                    or count < 0
                ):
                    raise SerializeError(
                        f"bag multiplicity must be a non-negative int, "
                        f"got {count!r}"
                    )
                items.extend([value_from_json(value)] * count)
            return CVBag(items)
    raise SerializeError(f"malformed value payload: {data!r}")


def relation_schema_to_json(info: RelationInfo) -> dict:
    """Encode one relation's declared schema (arity, keys, shared
    keys)."""
    return {
        "arity": info.arity,
        "keys": [list(k) for k in info.keys],
        "shared_keys": [
            {"columns": list(cols), "group": group}
            for cols, group in info.shared_keys.items()
        ],
    }


def declare_relation_from_json(db: Database, name: str, entry: Any) -> None:
    """Decode a :func:`relation_schema_to_json` entry and declare it on
    ``db`` as relation ``name``.  Other keys of ``entry`` are ignored."""
    if not isinstance(entry, dict):
        raise SerializeError(f"malformed schema for {name!r}: {entry!r}")
    try:
        arity = entry["arity"]
    except KeyError:
        raise SerializeError(
            f"schema for {name!r} is missing its arity"
        ) from None
    if not isinstance(arity, int) or isinstance(arity, bool) or arity < 0:
        raise SerializeError(
            f"schema arity for {name!r} must be a non-negative int, "
            f"got {arity!r}"
        )
    try:
        keys = [tuple(k) for k in entry.get("keys", [])]
        shared_keys = {
            tuple(item["columns"]): item["group"]
            for item in entry.get("shared_keys", [])
        }
    except (KeyError, TypeError) as exc:
        raise SerializeError(
            f"malformed schema for {name!r}: {exc!r}"
        ) from None
    try:
        db.create(name, arity, keys=keys, shared_keys=shared_keys)
    except SchemaError as exc:
        raise SerializeError(f"invalid schema for {name!r}: {exc}") from None


def database_to_json(db: Database) -> dict:
    """Encode relations + schema catalog."""
    relations = {
        name: [value_to_json(t) for t in sorted(rel, key=repr)]
        for name, rel in db.relations.items()
    }
    schema = {
        name: relation_schema_to_json(info)
        for name, info in db.catalog.relations.items()
    }
    return {"relations": relations, "schema": schema}


def database_from_json(data: Any) -> Database:
    """Rebuild a database (relations validated against the schema).

    Every malformed payload raises :class:`SerializeError` — including
    rows that violate the schema they arrived with (arity mismatches,
    duplicate keys), which are a *serialization* problem here: the
    bytes disagree with themselves.
    """
    if not isinstance(data, dict):
        raise SerializeError(
            f"database payload must be an object, "
            f"got {type(data).__name__}"
        )
    db = Database()
    schema = data.get("schema", {})
    if not isinstance(schema, dict):
        raise SerializeError(
            f"schema must be an object, got {type(schema).__name__}"
        )
    for name, entry in schema.items():
        declare_relation_from_json(db, name, entry)
    relations = data.get("relations", {})
    if not isinstance(relations, dict):
        raise SerializeError(
            f"relations must be an object, got {type(relations).__name__}"
        )
    for name, rows in relations.items():
        if not isinstance(rows, list):
            raise SerializeError(
                f"relation {name!r} must be a list of rows, got {rows!r}"
            )
        decoded = [value_from_json(row) for row in rows]
        if name in db.catalog:
            try:
                tuples = [tuple(t) for t in decoded]
            except TypeError:
                raise SerializeError(
                    f"relation {name!r} contains a non-tuple row"
                ) from None
            try:
                db.insert(name, tuples)
            except SchemaError as exc:
                raise SerializeError(
                    f"relation {name!r} violates its schema: {exc}"
                ) from None
        else:
            db[name] = CVSet(decoded)
    return db


def atomic_write_text(path: str, text: str) -> None:
    """Crash-safe file publication: write a same-directory temp file,
    flush + fsync it, then ``os.replace`` onto ``path``.

    Readers see either the old contents or the complete new contents,
    never a truncation — ``os.replace`` is atomic on POSIX and the
    fsync ensures the bytes hit disk before the name does.  The temp
    file lives in the target's directory because ``os.replace`` across
    filesystems is not atomic (it degrades to copy+delete).
    """
    target = os.path.abspath(os.fspath(path))
    directory = os.path.dirname(target)
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(target) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def save_database(db: Database, path: str) -> None:
    """Write the database to a JSON file (atomically; see
    :func:`atomic_write_text`)."""
    atomic_write_text(
        path, json.dumps(database_to_json(db), indent=1, sort_keys=True)
    )


def load_database(path: str) -> Database:
    """Read a database from a JSON file.

    Raises :class:`SerializeError` for any malformed contents (invalid
    JSON included); I/O errors (missing file, permissions) propagate
    as ``OSError`` — they are environmental, not a format problem.
    """
    with open(path) as handle:
        try:
            data = json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SerializeError(f"malformed database file: {exc}") from None
    return database_from_json(data)
