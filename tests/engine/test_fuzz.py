"""The differential fuzz harness itself stays green and wired up."""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.cli import main
from repro.engine.database import Database
from repro.engine.fuzz import SCENARIOS, Divergence, _Checker, run_fuzz
from repro.obs.metrics import REGISTRY
from repro.optimizer.plan import Join
from repro.robustness.faults import FaultInjector, InjectedFault

SRC = Path(__file__).resolve().parents[2] / "src"


class TestRunFuzz:
    def test_small_run_has_zero_divergences(self):
        report = run_fuzz(12)
        assert report.ok, report.summary()
        assert report.seeds == 12
        assert report.checks > 0
        # Every scenario family gets exercised across the cycle.
        assert set(report.per_scenario) == set(SCENARIOS)

    def test_deterministic_across_runs(self):
        cheap = tuple(name for name in SCENARIOS if name != "deep")
        a = run_fuzz(18, base_seed=3, scenarios=cheap)
        b = run_fuzz(18, base_seed=3, scenarios=cheap)
        assert a.injected, "no fault fired: the comparison is vacuous"
        assert a.checks == b.checks
        assert a.per_scenario == b.per_scenario
        assert a.injected == b.injected
        assert a.summary() == b.summary()

    def test_the_shared_cache_evicts_and_refuses(self):
        """The ``shared`` mode's cache is small enough that its puts
        evict and its admission refuses, and the warm reruns read it
        back, under the differential check."""
        report = run_fuzz(20, scenarios=("random", "alias"))
        assert report.ok, report.summary()
        assert report.cache["hits"] > 0
        assert report.cache["evictions"] > 0
        assert report.cache["refused"] > 0
        assert (
            f"shared cache: hits={report.cache['hits']}, "
            f"evictions={report.cache['evictions']}, "
            f"refused={report.cache['refused']}"
        ) in report.summary()

    def test_random_scenario_checks_a_multi_column_join(self, monkeypatch):
        """``random_plan`` joins on at most one column pair, so the
        ``random`` scenario adds a join on two or three pairs."""
        checked = []
        check = _Checker.check

        def spy(self, plan, db, **kwargs):
            checked.append(plan)
            return check(self, plan, db, **kwargs)

        monkeypatch.setattr(_Checker, "check", spy)
        report = run_fuzz(4, scenarios=("random",))
        assert report.ok, report.summary()
        joins = [p for p in checked if isinstance(p, Join) and len(p.on) >= 2]
        assert len(joins) == 4

    def test_base_seed_changes_the_fault_matrix(self):
        a = run_fuzz(5, base_seed=0, scenarios=("faults",))
        b = run_fuzz(5, base_seed=99, scenarios=("faults",))
        assert (a.checks, a.injected) != (b.checks, b.injected)

    def test_summary_mentions_faults_and_outcome(self):
        report = run_fuzz(3, scenarios=("faults",))
        assert "faults injected: " in report.summary()
        assert "zero divergences" in report.summary()
        report.divergences.append(
            Divergence(0, "faults", "faults-compiled", "value mismatch")
        )
        assert not report.ok
        assert "DIVERGENCE" in report.summary()

    def test_alias_scenario_catches_methods_keyed_by_their_function(
        self, monkeypatch
    ):
        # Intern a bound method by its function alone, as matching a
        # callable by its code did: methods of two instances then share
        # one cache entry and one CSE register.
        import repro.engine.exec.cache as cache

        annotate = cache.annotate_plan

        class ByFunction:
            def __init__(self, table):
                self.table = table

            def _key(self, key):
                kind, scalar, fn, children = key
                return (kind, scalar, getattr(fn, "__func__", fn), children)

            def get(self, key):
                return self.table.get(self._key(key))

            def __len__(self):
                return len(self.table)

            def __setitem__(self, key, token):
                self.table[self._key(key)] = token

        monkeypatch.setattr(
            cache, "annotate_plan",
            lambda plan, table: annotate(plan, ByFunction(table)),
        )
        report = run_fuzz(20, scenarios=("alias",))
        modes = {d.mode for d in report.divergences}
        assert {"shared", "fresh-compile", "fresh-cold"} <= modes

    def test_scenario_filter_and_validation(self):
        report = run_fuzz(4, scenarios=("alias", "atoms"))
        assert set(report.per_scenario) <= {"alias", "atoms"}
        with pytest.raises(ValueError, match="nope"):
            run_fuzz(1, scenarios=("nope",))
        # A run that names no scenario would check nothing.
        with pytest.raises(ValueError, match="no scenario"):
            run_fuzz(3, scenarios=())

    def test_seeds_rotate_through_the_scenarios(self, monkeypatch):
        played = []
        for name in SCENARIOS:
            monkeypatch.setitem(
                SCENARIOS, name,
                lambda rng, check, name=name: played.append(name),
            )
        run_fuzz(500)
        assert played[:10] == list(SCENARIOS)
        assert Counter(played) == {name: 50 for name in SCENARIOS}


class TestFaults:
    """The degradation guarantee: ``Database.run`` answers as the
    reference does whatever operator, cache and compile faults fire."""

    def test_faults_fire_at_every_site_and_degrade(self):
        before = REGISTRY.snapshot()["counters"].get("robustness.degraded", 0)
        report = run_fuzz(10, scenarios=("faults",))
        after = REGISTRY.snapshot()["counters"].get("robustness.degraded", 0)
        assert report.ok, report.summary()
        assert {"operator", "cache", "compile"} <= set(report.injected)
        assert after > before

    def test_an_escape_is_a_divergence(self, monkeypatch):
        def broken_run(self, plan, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(Database, "run", broken_run)
        report = run_fuzz(1, scenarios=("faults",))
        assert not report.ok
        modes = {d.mode for d in report.divergences}
        assert {"faults-compiled", "faults-reference"} <= modes
        assert all(
            d.detail == "RuntimeError escaped: boom"
            for d in report.divergences
        )

    def test_an_escaping_insert_is_a_divergence(self, monkeypatch):
        # The build inserts with no injector attached; only the
        # scenario's own insert, made under faults, breaks.
        insert = Database.insert

        def broken_insert(self, name, rows):
            if self.fault_injector is not None:
                raise RuntimeError("boom")
            return insert(self, name, rows)

        monkeypatch.setattr(Database, "insert", broken_insert)
        report = run_fuzz(3, scenarios=("faults",))
        assert [d.mode for d in report.divergences] == ["faults-insert"] * 3
        assert {d.detail for d in report.divergences} == {
            "RuntimeError escaped: boom"
        }

    def test_a_cache_without_seal_checks_diverges(self, monkeypatch):
        # Every entry sealed alike: a tampered entry passes its check
        # and is served.
        import repro.engine.exec.cache as cache

        monkeypatch.setattr(cache, "entry_seal", lambda *parts: 0)
        report = run_fuzz(20, scenarios=("faults",))
        assert report.injected["cache"] > 0
        assert len(report.divergences) == report.injected["cache"]


class TestRecovery:
    """The crash-recovery guarantee: every cut of a WAL recovers to a
    committed prefix of its mutation script."""

    def test_whole_log_check_runs_when_only_checkpoints_failed(
        self, monkeypatch
    ):
        """A failed checkpoint or log reset fails no mutation, so the
        whole log must still recover to the live database."""
        import repro.engine.fuzz as fuzz

        class CheckpointFaults(FaultInjector):
            """Fires at its drawn rate, but only at the two labels."""

            def tamper_wal_line(self, line):
                return line, None

            def maybe_raise(self, site, label="", error=InjectedFault):
                if label in ("checkpoint", "reset"):
                    super().maybe_raise(site, label, error)

        checked = Counter()
        check = fuzz._Checker._check

        def checking(self, mode, ok, detail):
            checked[mode] += 1
            check(self, mode, ok, detail)

        monkeypatch.setattr(fuzz, "FaultInjector", CheckpointFaults)
        monkeypatch.setattr(fuzz._Checker, "_check", checking)
        report = run_fuzz(30, scenarios=("recovery",))
        assert report.ok, report.summary()
        assert report.injected["durability"] > 0
        assert checked["recover-whole"] == 30

    def test_recovery_scenario_runs_every_seed(self):
        report = run_fuzz(4, scenarios=("recovery",))
        assert report.ok, report.summary()
        assert report.seeds == 4
        assert report.per_scenario["recovery"] > 0
        assert "durability" in run_fuzz(
            12, scenarios=("recovery",)
        ).injected

    def test_a_log_without_crc_checks_diverges(self, monkeypatch):
        # Every record checksummed alike: a flipped bit replays.
        import repro.durability.wal as wal

        monkeypatch.setattr(wal, "_record_crc", lambda *fields: 0)
        report = run_fuzz(30, scenarios=("recovery",))
        assert not report.ok
        assert {d.mode for d in report.divergences} <= {
            "recover-cut", "recover-bitflip", "recover-whole",
        }

    def test_a_log_without_rollback_diverges(self, monkeypatch):
        # A failed commit leaves its bytes behind: a failed sync's record
        # replays a mutation that never happened, and a torn write ends
        # the readable log before the mutations after it.
        monkeypatch.setattr("os.ftruncate", lambda fd, length: None)
        report = run_fuzz(30, scenarios=("recovery",))
        assert not report.ok
        assert {d.mode for d in report.divergences} <= {
            "recover-cut", "recover-bitflip", "recover-whole",
            "recover-plan",
        }

    def test_an_escaping_recover_is_a_divergence(self, monkeypatch):
        import repro.engine.fuzz as fuzz

        def broken_recover(directory):
            raise RuntimeError("boom")

        monkeypatch.setattr(fuzz, "recover", broken_recover)
        report = run_fuzz(2, scenarios=("recovery",))
        modes = {d.mode for d in report.divergences}
        assert "recover-cut" in modes
        assert modes <= {"recover-cut", "recover-bitflip"}
        assert {d.detail for d in report.divergences} == {
            "RuntimeError escaped: boom"
        }

    def test_a_recovery_that_drops_the_log_diverges(self, monkeypatch):
        # Recovering only the checkpoint lands every cut on a committed
        # prefix (the base); the whole-log check must still catch it.
        import repro.engine.fuzz as fuzz
        from repro.durability import WAL_NAME

        recover = fuzz.recover

        def forgetful_recover(directory):
            open(os.path.join(directory, WAL_NAME), "wb").close()
            return recover(directory)

        monkeypatch.setattr(fuzz, "recover", forgetful_recover)
        report = run_fuzz(12, scenarios=("recovery",))
        modes = {d.mode for d in report.divergences}
        assert "recover-whole" in modes
        assert modes <= {"recover-whole", "recover-plan"}


class TestImport:
    def test_engine_import_does_not_load_the_harness(self):
        code = (
            "import sys, repro.engine; "
            "sys.exit('repro.engine.fuzz' in sys.modules)"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, timeout=60
        )
        assert done.returncode == 0


class TestCli:
    def test_fuzz_subcommand_smoke(self, capsys):
        assert main(["fuzz", "--seeds", "5", "--scenarios", "deep"]) == 0
        out = capsys.readouterr().out
        # Every seed plays deep: cold, shared and shared-warm, three
        # checks each.
        assert "fuzz: 5 seeds, 15 differential checks" in out
        assert "zero divergences" in out
