"""The durability property, exercised literally: truncating the WAL at
**every byte offset** recovers a database equal to applying some prefix
of the committed mutation sequence — atomicity (never half a mutation)
plus durability (never a reordering, never a skip), across 100 seeded
random mutation scripts.

Cost control: the recovered state depends only on *which committed
records survive the truncation*, so the sweep scans every byte prefix
(that part is the point — the scanner must be trustworthy at arbitrary
cut points) but rebuilds a database only once per distinct committed
count.  A sampled subset of offsets additionally goes through the real
on-disk :func:`repro.durability.recover` path, checkpoint file and all,
to tie the in-memory sweep to the production entry point.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.durability import (
    WAL_NAME,
    DurabilityManager,
    database_digest,
    recover,
    replay_records,
    scan_wal,
)
from repro.engine.database import Database
from repro.types.values import CVSet, Tup

SEEDS = 100
_NAMES = ("r", "s")


def random_ops(rng: random.Random) -> list:
    """A short mutation script over the whole logged surface."""
    ops = [("create", name, 2) for name in _NAMES]
    ops += [
        (
            "insert",
            name,
            sorted({
                (rng.randrange(4), rng.randrange(4))
                for _ in range(rng.randint(1, 3))
            }),
        )
        for name in _NAMES
    ]
    for i in range(rng.randint(2, 4)):
        kind = rng.choice(("insert", "insert", "replace", "create"))
        if kind == "create":
            ops.append(("create", f"u{i}", 1))
        elif kind == "replace":
            ops.append((
                "replace",
                rng.choice(_NAMES),
                CVSet(
                    Tup((rng.randrange(4), rng.randrange(4)))
                    for _ in range(rng.randint(0, 3))
                ),
            ))
        else:
            ops.append((
                "insert",
                rng.choice(_NAMES),
                sorted({
                    (rng.randrange(6), rng.randrange(6))
                    for _ in range(rng.randint(1, 3))
                }),
            ))
    return ops


def apply_op(db: Database, op) -> None:
    kind, name, arg = op
    if kind == "create":
        db.create(name, arg)
    elif kind == "insert":
        db.insert(name, arg)
    else:
        db[name] = arg


def run_script(seed: int, directory: str) -> tuple[set, bytes]:
    """Run one script through a WAL-attached database.

    Returns ``(golden digests, wal bytes)`` — the digests after every
    op prefix (including the empty one), which is exactly the set of
    states any truncated recovery is allowed to land on.
    """
    rng = random.Random(31000 + seed)
    ops = random_ops(rng)

    shadow = Database()
    golden = {database_digest(shadow)}
    for op in ops:
        apply_op(shadow, op)
        golden.add(database_digest(shadow))

    live = Database()
    live.durability = DurabilityManager(directory, fsync=False)
    for op in ops:
        apply_op(live, op)
    assert database_digest(live) in golden  # sanity: shadow and live agree
    live.durability.close()

    with open(os.path.join(directory, WAL_NAME), "rb") as handle:
        return golden, handle.read()


def recovered_digest_cache():
    """Digest of the recovery of a readable prefix, memoized by the
    number of records in it (the only thing the digest depends on —
    every byte offset between two record boundaries recovers the same
    state, so the sweep rebuilds each distinct state once)."""
    cache: dict[int, tuple] = {}

    def for_prefix(prefix: bytes) -> tuple[tuple, int]:
        records = scan_wal(prefix).records
        count = len(records)
        if count not in cache:
            db = Database()
            replay_records(db, records)
            cache[count] = database_digest(db)
        return cache[count], count

    return for_prefix


@pytest.mark.parametrize("seed", range(SEEDS))
def test_every_byte_prefix_is_a_committed_prefix(seed, tmp_path):
    golden, data = run_script(seed, str(tmp_path / "state"))
    assert data  # the script logged something

    for_prefix = recovered_digest_cache()
    last_count = -1
    counts_seen = set()
    for cut in range(len(data) + 1):
        got, count = for_prefix(data[:cut])
        # Atomicity + durability, the whole property:
        assert got in golden, (
            f"seed {seed}: truncation at byte {cut} recovered a state "
            f"outside the committed-prefix set"
        )
        # A longer physical prefix never loses committed mutations.
        assert count >= last_count, (
            f"seed {seed}: committed count regressed at byte {cut}"
        )
        last_count = count
        counts_seen.add(count)
    # The sweep was not vacuous (intermediate states were hit), and the
    # untruncated log recovers a state in the golden set too (checked
    # above) — specifically the deepest one it reached.
    assert len(counts_seen) >= 2
    assert 0 in counts_seen


@pytest.mark.parametrize("seed", range(0, SEEDS, 10))
def test_sampled_prefixes_through_disk_recover(seed, tmp_path):
    """Tie the in-memory sweep to the production ``recover()`` path:
    for sampled cut points, write the truncated bytes to a real
    durability directory and recover from disk."""
    state = str(tmp_path / "state")
    golden, data = run_script(seed, state)
    for_prefix = recovered_digest_cache()

    rng = random.Random(77000 + seed)
    cuts = sorted({0, len(data), *rng.sample(range(len(data)), 6)})
    scratch = str(tmp_path / "scratch")
    os.makedirs(scratch)
    for cut in cuts:
        with open(os.path.join(scratch, WAL_NAME), "wb") as handle:
            handle.write(data[:cut])
        recovered, report = recover(scratch)
        assert database_digest(recovered) == for_prefix(data[:cut])[0], (
            f"seed {seed}: disk recover at byte {cut} disagrees with "
            f"the in-memory replay"
        )
        assert database_digest(recovered) in golden
        assert report.replayed == report.records_scanned


@pytest.mark.parametrize("seed", range(0, SEEDS, 5))
def test_bit_flips_never_corrupt_recovery(seed, tmp_path):
    """Silent single-byte corruption anywhere in the log: the CRC ends
    the readable prefix there, so recovery still lands inside the
    committed-prefix set — never on a mangled state."""
    golden, data = run_script(seed, str(tmp_path / "state"))
    rng = random.Random(88000 + seed)
    positions = rng.sample(range(len(data)), min(24, len(data)))
    for pos in positions:
        if data[pos] == 0x0A:
            continue  # framing bytes only split lines; content is the target
        flipped = data[:pos] + bytes([data[pos] ^ 0x20]) + data[pos + 1 :]
        db = Database()
        replay_records(db, scan_wal(flipped).records)
        assert database_digest(db) in golden, (
            f"seed {seed}: bit flip at byte {pos} escaped the CRC"
        )


def test_checkpointed_script_recovers_at_every_cut(tmp_path):
    """One deeper scenario: a checkpoint mid-script, then the sweep
    over the *post-checkpoint* WAL bytes with the snapshot in place —
    every cut lands on a committed prefix at-or-after the snapshot."""
    state = str(tmp_path / "state")
    rng = random.Random(4242)
    ops = random_ops(rng)
    half = len(ops) // 2

    shadow = Database()
    golden = {database_digest(shadow)}
    for op in ops:
        apply_op(shadow, op)
        golden.add(database_digest(shadow))

    live = Database()
    live.durability = DurabilityManager(state, fsync=False)
    for op in ops[:half]:
        apply_op(live, op)
    live.durability.checkpoint(live)
    snapshot_digest = database_digest(live)
    for op in ops[half:]:
        apply_op(live, op)
    live.durability.close()

    with open(os.path.join(state, WAL_NAME), "rb") as handle:
        data = handle.read()
    seen = set()
    for cut in range(len(data) + 1):
        with open(os.path.join(state, WAL_NAME), "wb") as handle:
            handle.write(data[:cut])
        recovered, _report = recover(state)
        got = database_digest(recovered)
        assert got in golden
        seen.add(got)
    assert snapshot_digest in seen  # cut at 0 = the snapshot itself
    assert database_digest(live) in seen  # the full log = the final state
