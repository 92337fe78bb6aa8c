"""Chaos harness: reproducibility and the zero-divergence contract."""

from repro.robustness import run_chaos
from repro.robustness.chaos import ChaosFailure


class TestRunChaos:
    def test_small_run_is_clean(self):
        report = run_chaos(6, crash_every=0)
        assert report.ok
        assert report.seeds == 6
        assert report.checks > 0
        assert not report.divergences and not report.escapes

    def test_faults_actually_fire_and_degrade(self):
        report = run_chaos(10, crash_every=0)
        assert sum(report.injected.values()) > 0
        assert report.degradations > 0

    def test_deterministic_across_runs(self):
        first = run_chaos(5, base_seed=3, crash_every=0)
        second = run_chaos(5, base_seed=3, crash_every=0)
        assert first.checks == second.checks
        assert first.injected == second.injected
        assert first.corruptions_caught == second.corruptions_caught

    def test_base_seed_changes_the_matrix(self):
        a = run_chaos(5, base_seed=0, crash_every=0)
        b = run_chaos(5, base_seed=99, crash_every=0)
        assert (a.checks, a.injected) != (b.checks, b.injected)

    def test_crash_scenario_runs_when_scheduled(self):
        report = run_chaos(2, crash_every=2)
        assert report.crash_scenarios == 1
        assert report.ok

    def test_summary_mentions_outcome(self):
        clean = run_chaos(3, crash_every=0)
        assert "zero semantic divergences" in clean.summary()
        clean.divergences.append(
            ChaosFailure(0, "divergence", "compiled", "value mismatch")
        )
        assert not clean.ok
        assert "DIVERGENCE" in clean.summary()

    def test_recovery_scenario_runs_every_seed(self):
        report = run_chaos(4, crash_every=0)
        assert report.recovery_scenarios == 4
        assert report.recovery_points > 0
        assert "recovery:" in report.summary()
