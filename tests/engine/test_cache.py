"""PlanCache edge cases: LRU order, invalidation scope, zero capacity,
stats accounting.

These poke the cache's storage layer directly (arbitrary hashable keys
+ hand-built :class:`CacheEntry` values), independent of the executors
— the executor-facing behaviour is covered in ``test_exec.py``.
"""

from __future__ import annotations

import pytest

from repro.engine.exec import CacheEntry, PlanCache
from repro.types.values import CVSet, Tup


def entry(*relations: str, rows: int = 1) -> CacheEntry:
    return CacheEntry(
        CVSet(Tup((i,)) for i in range(rows)),
        rows,
        (("scan", 0),),
        frozenset(relations),
    )


class TestLRUOrder:
    def test_eviction_is_least_recently_used(self):
        cache = PlanCache(capacity=3)
        for key in ("a", "b", "c"):
            cache.put(key, entry("r"))
        # Touch "a": it becomes most-recent; "b" is now the LRU entry.
        assert cache.get("a") is not None
        cache.put("d", entry("r"))
        assert cache.get("b") is None
        for key in ("a", "c", "d"):
            assert cache.get(key) is not None, key

    def test_interleaved_get_put_refreshes_recency(self):
        cache = PlanCache(capacity=2)
        cache.put("a", entry("r"))
        cache.put("b", entry("r"))
        assert cache.get("a") is not None  # a most-recent
        cache.put("c", entry("r"))  # evicts b
        assert cache.get("b") is None
        assert cache.get("a") is not None
        cache.put("d", entry("r"))  # evicts c (a was just touched)
        assert cache.get("c") is None
        assert cache.get("a") is not None

    def test_re_put_refreshes_position_and_value(self):
        cache = PlanCache(capacity=2)
        cache.put("a", entry("r", rows=1))
        cache.put("b", entry("r"))
        cache.put("a", entry("s", rows=3))  # refresh: new entry, new LRU slot
        cache.put("c", entry("r"))  # evicts b, not the refreshed a
        assert cache.get("b") is None
        got = cache.get("a")
        assert got is not None and len(got.value) == 3
        # The old entry's relation back-pointer must not linger: "a" now
        # reads only "s", so invalidating "r" must keep it.
        cache.invalidate("r")
        assert cache.get("a") is not None
        cache.invalidate("s")
        assert cache.get("a") is None


class TestInvalidationScope:
    def test_invalidate_leaves_unrelated_entries(self):
        cache = PlanCache()
        cache.put("on_r", entry("r"))
        cache.put("on_s", entry("s"))
        cache.put("on_rs", entry("r", "s"))
        cache.invalidate("r")
        assert cache.get("on_r") is None
        assert cache.get("on_rs") is None  # reads r too
        assert cache.get("on_s") is not None
        assert len(cache) == 1

    def test_invalidate_unknown_relation_is_noop(self):
        cache = PlanCache()
        cache.put("k", entry("r"))
        cache.invalidate("nope")
        assert cache.get("k") is not None

    def test_invalidate_all_clears_everything(self):
        cache = PlanCache()
        cache.put("k1", entry("r"))
        cache.put("k2", entry("s"))
        cache.invalidate()
        assert len(cache) == 0
        assert cache.get("k1") is None and cache.get("k2") is None


class TestZeroCapacity:
    @pytest.mark.parametrize("capacity", [0, -1, -256])
    def test_put_is_noop_and_get_always_misses(self, capacity):
        cache = PlanCache(capacity=capacity)
        cache.put("k", entry("r"))
        assert len(cache) == 0
        assert cache.get("k") is None
        assert cache.misses == 1 and cache.hits == 0
        assert cache.stats()["entries"] == 0


class TestStats:
    def test_stats_and_hit_rate_after_reset(self):
        cache = PlanCache()
        cache.put("k", entry("r"))
        assert cache.get("k") is not None
        assert cache.get("missing") is None
        assert cache.stats() == {
            "hits": 1,
            "misses": 1,
            "hit_rate": 0.5,
            "puts": 1,
            "evictions": 0,
            "invalidations": 0,
            "corruptions": 0,
            # Always 0 (inserts invalidate); the benchmark's traced
            # runs still read both keys.
            "maintained": 0,
            "maintain_fallback": 0,
            "entries": 1,
            "capacity": 256,
        }
        cache.reset_stats()
        assert cache.hits == 0 and cache.misses == 0
        assert cache.puts == 0 and cache.evictions == 0
        assert cache.invalidations == 0
        assert cache.hit_rate == 0.0  # no division-by-zero on empty stats
        assert cache.stats()["hit_rate"] == 0.0
        assert cache.stats()["entries"] == 1  # reset touches stats only
        assert cache.get("k") is not None
        assert cache.stats()["hits"] == 1 and cache.stats()["hit_rate"] == 1.0

    def test_put_evict_invalidate_counters(self):
        cache = PlanCache(capacity=2)
        cache.put("a", entry("r"))
        cache.put("b", entry("r"))
        cache.put("c", entry("r"))  # evicts "a" (LRU)
        assert cache.puts == 3 and cache.evictions == 1
        cache.invalidate("r")  # drops "b" and "c"
        assert cache.invalidations == 2
        cache.invalidate("r")  # nothing left to drop: counts nothing
        assert cache.invalidations == 2
        cache.put("d", entry("s"))
        cache.clear()  # full clear counts each dropped entry
        assert cache.invalidations == 3
        # Zero-capacity caches never store, so never put/evict.
        disabled = PlanCache(capacity=0)
        disabled.put("k", entry("r"))
        assert disabled.puts == 0 and disabled.evictions == 0
