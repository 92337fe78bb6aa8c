"""Tests for the experiment registry and reporting.

Every experiment, the heavyweight ones included, runs in
``tests/test_cli.py::TestWriteup``, which checks each table against
EXPERIMENTS.md; here we verify the registry plumbing and run the fast
experiments end to end (each must report ``matches_paper``).
"""

import pytest

from repro.experiments.registry import EXPERIMENTS, run, run_all
from repro.experiments.report import ExperimentResult, format_table, render


FAST_EXPERIMENTS = [
    "E-2.2",
    "E-2.6",
    "E-2.8",
    "E-2.9",
    "E-2.13",
    "E-3.4",
    "E-3.5",
    "E-3.9",
    "E-4.4",
    "E-4.6",
    "E-4.14",
    "E-4.13",
    "E-4.15",
    "E-OPT",
    "E-OPT-COST",
    "E-BAGS",
    "E-CHURCH",
    "E-ABLATION-SEARCH",
    "E-INEXPR",
    "E-STATIC",
    "E-ORDER",
]


class TestRegistry:
    def test_expected_ids_present(self):
        for exp_id in FAST_EXPERIMENTS:
            assert exp_id in EXPERIMENTS

    def test_registry_covers_design_index(self):
        # One experiment per numbered claim listed in DESIGN.md.
        assert len(EXPERIMENTS) >= 32

    @pytest.mark.parametrize("exp_id", FAST_EXPERIMENTS)
    def test_fast_experiments_match_paper(self, exp_id):
        result = run(exp_id)
        assert result.matches_paper, (exp_id, result.notes)
        assert result.rows

    def test_run_all_selected(self):
        results = run_all(["E-2.6", "E-4.14"])
        assert [r.exp_id for r in results] == ["E-2.6", "E-4.14"]


class TestReporting:
    def test_add_checks_arity(self):
        result = ExperimentResult("X", "t", "c", ("a", "b"))
        with pytest.raises(ValueError):
            result.add(1)

    def test_require_flips_flag(self):
        result = ExperimentResult("X", "t", "c", ("a",))
        assert result.matches_paper
        result.require(False, "boom")
        assert not result.matches_paper
        assert "boom" in result.notes

    def test_format_table_aligns(self):
        text = format_table(("col", "x"), [("a", 1), ("bbbb", 22)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1

    def test_render_includes_status(self):
        result = ExperimentResult("X", "title", "claim", ("a",))
        result.add("v")
        assert "MATCHES PAPER" in render(result)
        result.require(False)
        assert "MISMATCH" in render(result)
