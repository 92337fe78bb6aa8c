"""Fault-injection primitives: determinism, sites, tampering, seals."""

import pytest

from repro.engine.exec import PlanCache, entry_seal
from repro.engine.exec.cache import CacheEntry
from repro.robustness import (
    FAULT_SITES,
    FaultInjector,
    FaultPlan,
    InjectedFault,
    WorkerCrash,
)
from repro.types.values import cvset, tup


def _entry(seal=True):
    value = cvset(tup(1, 2), tup(3, 4))
    work = 7
    entries = (("scan(r)", 0), ("pi(0)", 7))
    return CacheEntry(
        value,
        work,
        entries,
        frozenset({"r"}),
        entry_seal(value, work, entries) if seal else None,
    )


class TestFaultPlan:
    def test_rates_default_to_zero(self):
        plan = FaultPlan(seed=3)
        for site in FAULT_SITES:
            assert plan.rate_for(site) == 0.0

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan().rate_for("disk")

    def test_injector_never_fires_at_zero_rate(self):
        injector = FaultInjector(FaultPlan(seed=1))
        for _ in range(100):
            injector.maybe_raise("operator")
        assert injector.injected == {}

    def test_injector_always_fires_at_rate_one(self):
        injector = FaultInjector(FaultPlan(seed=1, operator_rate=1.0))
        with pytest.raises(InjectedFault) as info:
            injector.maybe_raise("operator", "join")
        assert info.value.site == "operator"
        assert info.value.label == "join"
        assert injector.injected == {"operator": 1}


class TestDeterminism:
    def test_same_seed_same_draw_sequence(self):
        plan = FaultPlan(seed=42, operator_rate=0.3)

        def fire_pattern():
            injector = FaultInjector(plan)
            pattern = []
            for _ in range(50):
                try:
                    injector.maybe_raise("operator")
                    pattern.append(False)
                except InjectedFault:
                    pattern.append(True)
            return pattern

        assert fire_pattern() == fire_pattern()
        assert any(fire_pattern())  # 0.3 over 50 draws fires somewhere

    def test_different_seeds_differ(self):
        def pattern(seed):
            injector = FaultInjector(FaultPlan(seed=seed, cache_rate=0.5))
            return [
                injector.tamper_entry(_entry()) is not None
                and injector.injected.get("cache", 0)
                for _ in range(20)
            ]

        assert pattern(1) != pattern(2)


class TestTampering:
    def test_tampered_entry_fails_its_seal(self):
        injector = FaultInjector(FaultPlan(seed=5, cache_rate=1.0))
        for _ in range(10):  # all three corruption shapes eventually
            original = _entry()
            tampered = injector.tamper_entry(original)
            assert tampered is not original
            assert tampered.seal == original.seal  # stale on purpose
            assert tampered.seal != entry_seal(
                tampered.value, tampered.work, tampered.entries
            )

    def test_no_tamper_below_rate(self):
        injector = FaultInjector(FaultPlan(seed=5, cache_rate=0.0))
        original = _entry()
        assert injector.tamper_entry(original) is original


class TestCacheSealRevalidation:
    def test_corrupted_entry_served_as_miss_and_dropped(self):
        cache = PlanCache()
        cache.put("k", _entry(seal=False))  # put stamps the seal
        cache.fault_injector = FaultInjector(FaultPlan(seed=9, cache_rate=1.0))
        assert cache.get("k") is None
        assert cache.corruptions == 1
        assert cache.misses == 1 and cache.hits == 0
        assert len(cache) == 0  # dropped, not just hidden
        # A clean re-put serves again once injection is off.
        cache.fault_injector = None
        cache.put("k", _entry(seal=False))
        assert cache.get("k") is not None

    def test_put_seals_unsealed_entries(self):
        cache = PlanCache()
        cache.put("k", _entry(seal=False))
        stored = cache.get("k")
        assert stored.seal == entry_seal(
            stored.value, stored.work, stored.entries
        )


class TestWorkerCrash:
    def test_crash_decision_depends_only_on_seed_and_chunk(self):
        crash = WorkerCrash(seed=11, rate=0.5)
        first = [crash.crashes(i) for i in range(30)]
        second = [crash.crashes(i) for i in range(30)]
        assert first == second
        assert any(first) and not all(first)

    def test_rate_extremes(self):
        assert not any(
            WorkerCrash(seed=1, rate=0.0).crashes(i) for i in range(20)
        )
        assert all(
            WorkerCrash(seed=1, rate=1.0).crashes(i) for i in range(20)
        )
