"""PlanCache edge cases: LRU order, admission, invalidation scope, zero
capacity, stats accounting, and the annotation memo.

Most of these poke the cache's storage layer directly (hand-built keys
and :class:`CacheEntry` values), independent of the executors — the
executor-facing behaviour is covered in ``test_exec.py``.  Admission
counts lookups per ``key[0]``, the semantic token of a real key: the
bare string keys of the LRU tests are never looked up before their
puts, so their counts tie, and the admission tests use ``(token, ())``
keys.  ``TestAnnotationMemo`` counts the plan walks behind
``PlanCache.annotate`` through ``Database.run``, and
``TestAdmissionGate`` the hits, misses, evictions and refusals of a
seeded query stream.
"""

from __future__ import annotations

import random
from collections import OrderedDict

import pytest

import repro.engine.exec.cache as cache_module
from repro.engine.database import Database
from repro.engine.exec import CacheEntry, PlanCache
from repro.optimizer.plan import Project, Scan, Select, Union
from repro.optimizer.rewriter import Rewriter
from repro.types.values import CVSet, Tup
from tests.conftest import hr_plans, shuffled_draws


def entry(*relations: str, rows: int = 1, work: int | None = None) -> CacheEntry:
    return CacheEntry(
        CVSet(Tup((i,)) for i in range(rows)),
        rows if work is None else work,
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


def key(token):
    """A cache key shaped like a real one: a token, no relations."""
    return (token, ())


def lookup(cache: PlanCache, token, times: int = 1) -> None:
    """``times`` lookups of ``token``, as ``Database.run`` makes them."""
    for _ in range(times):
        cache.get(key(token))


def fill(cache: PlanCache, *tokens, work: int = 1) -> None:
    """Store one entry per token, in order (the first is the LRU)."""
    for token in tokens:
        cache.put(key(token), entry("r", work=work))


class TestAdmission:
    """A new key meeting a full cache evicts the LRU entry only if its
    lookups times its work are at least the victim's."""

    def test_newcomer_refused_by_more_often_looked_up_entries(self):
        cache = PlanCache(capacity=2)
        fill(cache, "a", "b")
        lookup(cache, "a", 3)
        lookup(cache, "b", 3)
        lookup(cache, "c")  # a miss, as Database.run makes before its put
        cache.put(key("c"), entry("r"))
        assert cache.get(key("c")) is None
        assert cache.get(key("a")) is not None
        assert cache.get(key("b")) is not None
        assert (cache.puts, cache.evictions, cache.refused) == (2, 0, 1)
        assert cache.stats()["refused"] == 1 and len(cache) == 2

    def test_higher_count_times_work_evicts_the_lru_entry(self):
        cache = PlanCache(capacity=2)
        fill(cache, "a", "b")
        lookup(cache, "a", 3)  # 3 x 1
        lookup(cache, "b", 3)  # b is now the most recently used
        lookup(cache, "c")  # 1 lookup, but 4 x the work: 1 x 4 > 3 x 1
        cache.put(key("c"), entry("r", work=4))
        assert cache.get(key("a")) is None
        assert cache.get(key("b")) is not None
        assert cache.get(key("c")) is not None
        assert (cache.puts, cache.evictions, cache.refused) == (3, 1, 0)

    def test_more_lookups_at_equal_work_also_evict(self):
        cache = PlanCache(capacity=2)
        fill(cache, "a", "b")
        lookup(cache, "a")
        lookup(cache, "b")
        lookup(cache, "c", 2)
        cache.put(key("c"), entry("r"))
        assert cache.get(key("a")) is None
        assert cache.evictions == 1 and cache.refused == 0

    def test_ties_admit(self):
        cache = PlanCache(capacity=2)
        fill(cache, "a", "b", work=2)
        lookup(cache, "a", 2)  # 2 x 2
        lookup(cache, "b", 2)
        lookup(cache, "c")  # 1 x 4: a tie with a
        cache.put(key("c"), entry("r", work=4))
        assert cache.get(key("a")) is None
        assert cache.get(key("c")) is not None
        assert cache.refused == 0

    def test_re_put_of_a_stored_key_is_never_refused(self):
        cache = PlanCache(capacity=2)
        fill(cache, "a", "b")
        lookup(cache, "b", 5)
        lookup(cache, "a")  # b is the LRU entry: 1 x 3 < 5 x 1
        cache.put(key("a"), entry("r", rows=3))
        got = cache.get(key("a"))
        assert got is not None and len(got.value) == 3
        assert (cache.puts, cache.evictions, cache.refused) == (3, 0, 0)

    def test_a_cache_that_never_fills_never_refuses(self):
        cache = PlanCache(capacity=4)
        lookup(cache, "a", 9)
        fill(cache, "a", "b", "c")
        lookup(cache, "d")
        fill(cache, "d")
        assert len(cache) == 4 and cache.refused == 0

    def test_halving_lets_a_newly_hot_token_in(self):
        """Counts halve every ``10 * capacity`` lookups, so a token that
        turns hot needs half of an old favourite's count to displace
        it: c gets in on its 5th lookup, not its 9th."""
        cache = PlanCache(capacity=2)
        fill(cache, "a", "b")
        lookup(cache, "a", 9)
        lookup(cache, "b", 9)  # 18 lookups of the 20-lookup window
        refused = 0
        while cache.get(key("c")) is None:
            before = cache.refused
            cache.put(key("c"), entry("r"))
            refused += cache.refused - before
        # c's 2nd lookup is the window's 20th: a and b halve to 4, c to
        # 1.  Its puts after lookups 1-4 are refused; the 5th makes it 4.
        assert refused == 4 and cache.evictions == 1
        assert cache.get(key("a")) is None  # b was looked up last
        assert cache.get(key("b")) is not None

    def test_invalidate_all_drops_the_counts(self):
        cache = PlanCache(capacity=2)
        fill(cache, "a", "b")
        lookup(cache, "a", 5)
        lookup(cache, "b", 5)
        cache.invalidate("r")  # drops the entries, keeps the counts
        fill(cache, "a", "b")
        lookup(cache, "c")
        cache.put(key("c"), entry("r"))
        assert cache.refused == 1
        cache.invalidate(None)  # drops entries, tokens and counts
        fill(cache, "a", "b")
        lookup(cache, "c")
        cache.put(key("c"), entry("r"))
        assert cache.get(key("c")) is not None
        assert cache.refused == 1 and cache.evictions == 1


def zipf_draws(count: int, size: int, seed: int = 0) -> list[int]:
    """``count`` seeded Zipf(1.0) draws of an index below ``size``."""
    weights = [1.0 / rank for rank in range(1, size + 1)]
    return random.Random(seed).choices(range(size), weights, k=count)


def plain_lru(tokens, work: dict, capacity: int) -> tuple[int, int, int]:
    """Misses, evictions and executed work of a plain LRU cache that
    stores every miss, over a stream of lookups keyed by token."""
    stored: OrderedDict = OrderedDict()
    misses = evictions = executed = 0
    for token in tokens:
        if token in stored:
            stored.move_to_end(token)
            continue
        misses += 1
        executed += work[token]
        stored[token] = None
        if len(stored) > capacity:
            stored.popitem(last=False)
            evictions += 1
    return misses, evictions, executed


class TestAdmissionGate:
    """600 seeded Zipf(1.0) draws of 40 random HR plans through a
    16-entry cache.  The stream, the tokens and the work are all
    deterministic, so the counts must repeat exactly under any
    ``PYTHONHASHSEED``.  A plain LRU that stores every miss makes as
    many misses here, evicts 173 entries instead of 15, and executes
    half as much work again: admission keeps the entries that save the
    most work."""

    def test_counts_of_a_seeded_zipf_stream(self, hr_db):
        hr = hr_db(seed=0, employees=6, students=4, overlap=2)
        db = Database(cache_capacity=16)
        for name, relation in hr.relations.items():
            db[name] = relation
        cache = db.plan_cache
        plans = list(hr_plans(range(40)))
        tokens, work, executed = [], {}, 0
        for k in zipf_draws(600, 40):
            plan = plans[k]
            misses = cache.misses
            result = db.run(plan)
            assert result.value == db.run_reference(plan).value
            token = cache.annotate(plan)[id(plan)][0]
            tokens.append(token)
            work[token] = result.work
            if cache.misses > misses:
                executed += result.work
        stats = cache.stats()
        assert [
            stats[k] for k in ("hits", "misses", "puts", "evictions", "refused")
        ] == [411, 189, 31, 15, 158]
        assert executed == 23_358
        lru_misses, lru_evictions, lru_executed = plain_lru(tokens, work, 16)
        assert (lru_misses, lru_evictions, lru_executed) == (189, 173, 34_898)
        assert stats["misses"] <= lru_misses
        assert 10 * stats["evictions"] < lru_evictions
        assert executed < lru_executed


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
            "refused": 0,
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
        assert cache.refused == 0 and cache.invalidations == 0
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


@pytest.fixture
def walks(monkeypatch):
    """The plans ``PlanCache.annotate`` walked while the test ran."""
    calls = []
    walk = cache_module.annotate_plan

    def counting(plan, *args):
        calls.append(plan)
        return walk(plan, *args)

    monkeypatch.setattr(cache_module, "annotate_plan", counting)
    return calls


def _plan():
    return Project((0,), Union(Scan("r"), Scan("s")))


class TestAnnotationMemo:
    """A semantic token reads the plan and its callables, never data,
    so each plan object is walked once until the intern table goes."""

    def test_one_walk_across_hits_misses_and_inserts(self, small_db, walks):
        plan = _plan()
        small_db.run(plan)  # miss
        small_db.run(plan)  # hit
        small_db.insert("r", [(8, 9)])
        small_db["s"] = small_db["s"]
        small_db.run(plan)  # miss after the insert
        small_db.run(plan, use_cache=False)
        small_db.run(plan, mode="reference")  # hit
        assert walks == [plan]
        assert (small_db.plan_cache.hits, small_db.plan_cache.misses) == (2, 2)

    def test_equal_fresh_object_walks_again_to_the_same_token(
        self, small_db, walks
    ):
        first, second = _plan(), _plan()
        tokens = [small_db.plan_cache.annotate(p)[id(p)] for p in (first, second)]
        assert walks == [first, second]
        assert tokens[0] == tokens[1]
        small_db.run(first)
        small_db.run(second)  # a hit: same token, same key
        assert small_db.plan_cache.hits == 1

    @pytest.mark.parametrize("drop", ["clear", "invalidate-all"])
    def test_dropping_the_intern_table_walks_again(
        self, small_db, walks, drop
    ):
        plan = _plan()
        small_db.run(plan)
        if drop == "clear":
            small_db.plan_cache.clear()
        else:
            small_db.plan_cache.invalidate(None)
        small_db.run(plan)
        small_db.run(plan)
        assert walks == [plan, plan]

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_every_run_walks_without_capacity(self, walks, capacity):
        db = Database(cache_capacity=capacity)
        db["p"] = CVSet(Tup((i,)) for i in range(4))
        plan = Select("small", lambda t: t[0] < 2, Scan("p"))
        for _ in range(3):
            db.run(plan)
        assert walks == [plan] * 3

    def test_short_lived_plans_get_their_own_tokens(self, small_db):
        """Each root is dropped after its run, so the next one, the
        only object built in its place, may get its address: an entry
        kept by ``id`` alone would hand it the dropped plan's tokens."""
        child = Union(Scan("r"), Scan("s"))
        for i in range(20):
            plan = Project((i % 2,), child)
            result = small_db.run(plan)
            assert result.value == small_db.run_reference(plan).value
            del plan

    def test_least_recently_used_walk_is_dropped(self, walks):
        cache = PlanCache(capacity=2)
        a, b, c = (Project((i,), Scan("r")) for i in range(3))
        for plan in (a, b, a, c, a, b):
            cache.annotate(plan)
        assert walks == [a, b, c, b]

    def test_one_walk_per_plan_object_in_a_query_stream(self, hr_db, walks):
        """400 optimize-and-run draws over 40 plan objects, with inserts
        between them, walk 40 times (walking every run makes 400)."""
        db = hr_db(seed=0, employees=6, students=4, overlap=2)
        plans = list(hr_plans(range(40)))
        for i, k in enumerate(shuffled_draws(40, 10)):
            if i % 25 == 24:
                db.insert("contractors", [(1000 + i, "x", "y")])
            db.run(Rewriter(db.catalog).optimize(plans[k]))
        assert len(walks) == 40
