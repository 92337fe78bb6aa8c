"""Tests for the command-line interface."""

from pathlib import Path

from repro.cli import OPERATION_CATALOG, build_parser, main
from repro.experiments.registry import EXPERIMENTS

EXPERIMENTS_MD = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"


def text_blocks(markdown: str) -> dict[str, list[str]]:
    """The ```` ```text ```` blocks of a writeup, in order, keyed by the
    ``##`` section they appear in: an experiment id, or ``Figures``."""
    blocks: dict[str, list[str]] = {}
    section = ""
    lines = markdown.splitlines()
    i = 0
    while i < len(lines):
        if lines[i].startswith("## "):
            section = lines[i][3:].partition(" — ")[0]
        elif lines[i] == "```text":
            end = lines.index("```", i + 1)
            blocks.setdefault(section, []).append("\n".join(lines[i + 1:end]))
            i = end
        i += 1
    return blocks


class TestList:
    def test_lists_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E-2.2" in out
        assert "E-OPT" in out


class TestRun:
    def test_runs_named_experiment(self, capsys):
        assert main(["run", "E-2.6"]) == 0
        out = capsys.readouterr().out
        assert "MATCHES PAPER" in out

    def test_unknown_id_errors(self, capsys):
        assert main(["run", "E-404"]) == 2

    def test_no_ids_errors(self, capsys):
        assert main(["run"]) == 2


class TestClassify:
    def test_classifies_catalog_operation(self, capsys):
        assert main(["classify", "projection", "--trials", "5"]) == 0
        out = capsys.readouterr().out
        assert "tightest rel class" in out

    def test_unknown_operation(self, capsys):
        assert main(["classify", "nonsense"]) == 2
        err = capsys.readouterr().err
        assert "choose from" in err

    def test_catalog_entries_build(self):
        for factory in OPERATION_CATALOG.values():
            query = factory()
            assert query.name


class TestOptimize:
    def test_optimizes_plan_text(self, capsys):
        code = main(["optimize", "pi[1](employees - students)",
                     "--size", "20"])
        assert code == 0
        out = capsys.readouterr().out
        assert "rewritten" in out
        assert "chosen" in out

    def test_parse_error_reported(self, capsys):
        assert main(["optimize", "pi[0]("]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_show_rows(self, capsys):
        main(["optimize", "employees", "--size", "5", "--show-rows", "3"])
        out = capsys.readouterr().out
        assert "answer (" in out

    def test_schema_error_reported(self, capsys):
        # Parses fine, but the projection column exceeds the arity.
        assert main(["optimize", "pi[9](employees)"]) == 2
        assert "schema error" in capsys.readouterr().err


class TestRunDivergence:
    def test_diverging_experiment_sets_exit_code(self, capsys, monkeypatch):
        from repro.experiments import registry
        from repro.experiments.report import ExperimentResult

        fake = ExperimentResult(
            exp_id="E-2.6", title="t", paper_claim="c",
            columns=("a",), rows=[(1,)], matches_paper=False,
        )
        monkeypatch.setattr(
            registry, "run_all", lambda ids, jobs=1: [fake]
        )
        assert main(["run", "E-2.6"]) == 1
        captured = capsys.readouterr()
        assert "MISMATCH" in captured.out
        assert "diverged from the paper" in captured.err


class TestClassifyParallel:
    def test_jobs_flag_renders_the_serial_text(self, capsys):
        assert main(["classify", "projection", "--trials", "3"]) == 0
        serial = capsys.readouterr().out
        assert (
            main(["classify", "projection", "--trials", "3", "--jobs", "2"])
            == 0
        )
        assert capsys.readouterr().out == serial


class TestChaos:
    def test_chaos_smoke_exits_clean(self, capsys):
        assert main(["chaos", "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "divergences" in out


class TestBenchPlumbing:
    def test_bench_forwards_flags(self, monkeypatch):
        import repro.bench

        seen = {}
        monkeypatch.setattr(
            repro.bench, "main",
            lambda argv: seen.setdefault("argv", argv) and 0 or 0,
        )
        code = main([
            "bench", "--quick", "--skip-eperf", "--out", "X.json",
            "--jobs", "3",
        ])
        assert code == 0
        assert seen["argv"] == [
            "--out", "X.json", "--quick", "--skip-eperf", "--jobs", "3",
        ]


class TestWriteup:
    def test_writeup_to_custom_path(self, tmp_path, capsys):
        target = tmp_path / "EXP.md"
        assert main(["writeup", str(target)]) == 0
        text = target.read_text()
        assert "paper vs. measured" in text
        assert "32/32 claims reproduce" in text
        # Every table and figure is byte-identical to the checked-in
        # record; only timings may differ between runs.
        expected = text_blocks(EXPERIMENTS_MD.read_text())
        measured = text_blocks(text)
        assert set(expected) == set(EXPERIMENTS) | {"Figures"}
        assert set(measured) == set(expected)
        for section, blocks in expected.items():
            assert measured[section] == blocks, section


class TestParser:
    def test_build_parser_has_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["list"])
        assert args.command == "list"


class TestRecover:
    def _seed_state(self, tmp_path):
        from repro.durability import DurabilityManager
        from repro.engine.database import Database

        state = str(tmp_path / "state")
        db = Database()
        db.durability = DurabilityManager(state, fsync=False)
        db.create("employees", 3)
        db.insert("employees", [(1, "ada", "d0"), (2, "bob", "d1")])
        db.create("students", 3)
        db.insert("students", [(2, "bob", "d1")])
        db.durability.close()
        return state

    def test_recover_prints_report_and_spans(self, tmp_path, capsys):
        state = self._seed_state(tmp_path)
        assert main(["recover", state]) == 0
        out = capsys.readouterr().out
        assert "4 replayed" in out
        assert "recover" in out and "replay" in out  # span tree

    def test_recover_json_and_dump(self, tmp_path, capsys):
        import json

        from repro.engine.serialize import load_database
        from repro.types.values import cvset, tup

        state = self._seed_state(tmp_path)
        dump = str(tmp_path / "snapshot.json")
        assert main(["recover", state, "--json", "--dump", dump]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["replayed"] == 4
        assert load_database(dump)["students"] == cvset(
            tup(2, "bob", "d1")
        )

    def test_recover_missing_checkpoint_dir_is_empty_db(
        self, tmp_path, capsys
    ):
        assert main(["recover", str(tmp_path / "nothing")]) == 0
        assert "checkpoint: none" in capsys.readouterr().out

    def test_explain_wal_runs_against_recovered_db(self, tmp_path, capsys):
        state = self._seed_state(tmp_path)
        code = main([
            "explain", "pi[1](employees - students)",
            "--mode", "compiled", "--wal", state,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "recover" in out  # recovery report leads
        assert "EXPLAIN ANALYZE" in out
        assert "rows=1" in out  # ada is the only non-student

    def test_explain_wal_json_carries_the_recovery(self, tmp_path, capsys):
        import json

        state = self._seed_state(tmp_path)
        code = main([
            "explain", "employees", "--mode", "compiled",
            "--wal", state, "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["recovery"]["replayed"] == 4
        assert payload["explains"][0]["mode"] == "compiled"

    def test_optimize_wal(self, tmp_path, capsys):
        state = self._seed_state(tmp_path)
        code = main([
            "optimize", "pi[1](employees - students)", "--wal", state,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "recover" in out
        assert "answer (1 rows" in out
