"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiments.registry import EXPERIMENTS
from repro.genericity.catalog import PAPER_TABLE
from repro.optimizer.parser import parse_plan
from repro.optimizer.rewriter import Rewriter

EXPERIMENTS_MD = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"
SRC = Path(__file__).resolve().parents[1] / "src"


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
        # The names are E-TABLE1's row labels, with no alias for the
        # underscore spellings ``sigma_eq`` and ``sigma_hat``.
        for name in ("nonsense", "sigma_eq"):
            assert main(["classify", name]) == 2
            err = capsys.readouterr().err
            assert "choose from" in err
            for entry in PAPER_TABLE:
                assert entry.name in err
            assert "sigma_eq" not in err

    @pytest.mark.parametrize("name", [entry.name for entry in PAPER_TABLE])
    def test_classifies_every_catalog_row(self, name, capsys):
        assert main(["classify", name, "--trials", "2"]) == 0
        out = capsys.readouterr().out
        # The trailing space keeps ``sigma-hat`` from passing for
        # ``sigma-hat[1=2]``, the query's own name.
        assert out.startswith(f"classification of {name} ")
        assert "tightest strong class" in out

    def test_has_no_jobs_option(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["classify", "union", "--jobs", "2"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err


#: HR plans whose rewrite ``optimize`` keeps or refuses by measured
#: work: the selection over a union refuses it at both sizes, and the
#: last plan has no rewrite.
CHOICE_PLANS = [
    "pi[1](employees U students)",
    "pi[1](employees - students)",
    "sigma[$1>1010](employees U students)",
    "pi[1](pi[1,2](employees) - pi[1,2](students))",
]


class TestOptimize:
    def test_optimizes_plan_text(self, capsys):
        code = main(["optimize", "pi[1](employees - students)",
                     "--size", "20"])
        assert code == 0
        out = capsys.readouterr().out
        assert "rewritten" in out
        assert "chosen" in out

    @pytest.mark.parametrize("plan, work, chosen, answer", [
        # The selection keeps most rows, and the rows both inputs
        # share are selected twice: the ledger keeps the original.
        ("sigma[$1>1010](employees U students)", "555 -> 567",
         "sigma[$1>1010]((employees U students))",
         "answer (74 rows, measured work 555)"),
        ("pi[1](employees - students)", "435 -> 400",
         "(pi[1](employees) - pi[1](students))",
         "answer (45 rows, measured work 400)"),
    ], ids=["keeps-original", "keeps-rewrite"])
    def test_chooses_the_plan_by_measured_work(
        self, plan, work, chosen, answer, capsys
    ):
        assert main(["optimize", plan]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert f"measured work: {work}" in lines
        assert f"chosen   : {chosen}" in lines
        assert lines[-1] == answer

    @pytest.mark.parametrize("size", [50, 200])
    @pytest.mark.parametrize("text", CHOICE_PLANS)
    def test_measured_work_is_the_reference_ledger(
        self, text, size, hr_db, capsys
    ):
        # The same database the command builds, run by the reference
        # interpreter: its work is what the command prints, and the
        # rewrite is kept unless it measured more.
        db = hr_db(seed=0, employees=size, students=size * 2 // 3,
                   overlap=size // 4)
        plan = parse_plan(text)
        rewritten = Rewriter(db.catalog).optimize(plan)
        before, after = db.run_reference(plan), db.run_reference(rewritten)
        kept, result = (
            (rewritten, after) if after.work <= before.work
            else (plan, before)
        )
        assert main(["optimize", text, "--size", str(size)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert f"measured work: {before.work} -> {after.work}" in lines
        assert f"chosen   : {kept}" in lines
        assert lines[-1] == (
            f"answer ({len(result.value)} rows, "
            f"measured work {result.work})"
        )

    def test_plan_without_a_rewrite_is_kept(self, capsys):
        assert main(["optimize", "employees", "--size", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "measured work: 0 -> 0" in lines
        assert "chosen   : employees" in lines
        assert lines[-1] == "answer (5 rows, measured work 0)"

    def test_parse_error_reported(self, capsys):
        assert main(["optimize", "pi[0]("]) == 2
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["optimize", "explain"])
    def test_too_deeply_nested_plan_is_a_parse_error(self, command, capsys):
        text = "pi[1](" * 2000 + "employees" + ")" * 2000
        assert main([command, text, "--size", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "parse error: plan nested too deeply\n"
        assert captured.out == ""

    def test_show_rows(self, capsys):
        def shown(rows):
            assert main(["optimize", "employees", "--size", "5",
                         "--show-rows", rows]) == 0
            out = capsys.readouterr().out
            assert "answer (5 rows" in out
            return sum(line.startswith("   ") for line in out.splitlines())

        assert shown("3") == 3
        assert shown("9") == 5
        assert shown("0") == 0  # 0 means none

    def test_schema_error_reported(self, capsys):
        # Parses fine, but the projection column exceeds the arity.
        assert main(["optimize", "pi[9](employees)"]) == 2
        assert "schema error" in capsys.readouterr().err

    def test_selection_over_product_is_not_pushed_by_its_name(self, capsys):
        # The predicate reads column 4, which only the product has; a
        # marker in its text must not move it onto the left factor.
        plan = "sigma[$4='@left'](employees x students)"
        assert main(["optimize", plan, "--size", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        original, rewritten = lines[0], lines[1]
        assert rewritten.split(":", 1)[1] == original.split(":", 1)[1]
        assert not any("applied:" in line for line in lines)
        assert any(line.startswith("answer (0 rows") for line in lines)


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


class TestFuzz:
    def test_unknown_scenario_exits_2(self, capsys):
        from repro.engine.fuzz import SCENARIOS

        assert main(["fuzz", "--seeds", "2", "--scenarios", "bogus"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "unknown scenario(s): bogus; choose from: "
            f"{', '.join(SCENARIOS)}\n"
        )
        assert captured.out == ""

    def test_fault_scenarios_smoke(self, capsys):
        argv = ["fuzz", "--seeds", "4", "--scenarios", "faults", "recovery"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "faults injected: " in out
        assert "zero divergences" in out

    def test_chaos_is_not_a_command(self, capsys):
        # Its fault matrix and crash-point recovery check are the
        # ``faults`` and ``recovery`` scenarios of ``fuzz``.
        with pytest.raises(SystemExit) as exit_:
            main(["chaos", "--seeds", "2"])
        assert exit_.value.code == 2
        assert "invalid choice: 'chaos'" in capsys.readouterr().err


class TestClosedStdout:
    @pytest.mark.parametrize("argv", [
        ["optimize", "employees", "--size", "200", "--show-rows", "200"],
        ["explain"],
    ], ids=lambda argv: argv[0])
    def test_closed_stdout_exits_1_without_traceback(self, argv):
        # As in ``repro optimize ... | head -n 1``: the reader is gone
        # before the command writes a line.
        env = dict(os.environ, PYTHONPATH=str(SRC))
        child = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        child.stdout.close()
        err = child.stderr.read().decode()
        child.stderr.close()
        assert child.wait() == 1
        assert "Traceback" not in err


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

    @pytest.mark.parametrize("name", ["missing/EXP.md", "."])
    def test_unwritable_path_fails_before_any_experiment(
        self, tmp_path, capsys, monkeypatch, name
    ):
        from repro.experiments import writeup

        monkeypatch.setattr(
            writeup, "generate", lambda: pytest.fail("experiments ran")
        )
        assert main(["writeup", str(tmp_path / name)]) == 2
        assert "writeup: cannot write" in capsys.readouterr().err


class TestParser:
    def test_build_parser_has_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["list"])
        assert args.command == "list"


class TestCountOptions:
    """Trials, seeds, database sizes and worker counts must be at least
    1: zero trials or seeds would print a verdict from no evidence, a
    size below 1 cannot build the demo database, and ``--jobs 0`` would
    run serially without a word."""

    @pytest.mark.parametrize("argv", [
        ["classify", "union", "--trials", "0"],
        ["classify", "union", "--trials", "-3"],
        ["fuzz", "--seeds", "0"],
        ["optimize", "pi[1](employees)", "--size", "0"],
        ["explain", "pi[1](employees)", "--size", "-1"],
        ["run", "E-2.2", "--jobs", "-3"],
        ["fuzz", "--seeds", "1", "--jobs", "0"],
    ], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
    def test_non_positive_count_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[-2]}: must be at least 1, got {argv[-1]}" in err
        assert "Traceback" not in err

    def test_size_one_builds_the_demo_database(self, capsys):
        assert main(["optimize", "pi[1](employees)", "--size", "1"]) == 0
        assert "answer (1 rows" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["optimize", "pi[1](employees)", "--size", "5", "--show-rows", "-1"],
        ["explain", "pi[1](employees)", "--warm", "-2"],
    ], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
    def test_negative_row_or_warm_count_exits_2(self, argv, capsys):
        # A negative count has no meaning: sliced as rows[:-1],
        # ``--show-rows -1`` would print all rows but the last.
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[-2]}: must be at least 0, got {argv[-1]}" in err
        assert "Traceback" not in err


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
        from repro.durability import recover

        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["recover", str(empty)]) == 0
        assert "checkpoint: none" in capsys.readouterr().out
        # The library also recovers an empty database from a directory
        # that does not exist; only the command refuses one.
        db, report = recover(tmp_path / "nothing")
        assert not db.relations and not report.checkpoint_loaded

    def test_recover_missing_directory_fails(self, tmp_path, capsys):
        assert main(["recover", str(tmp_path / "nothing")]) == 1
        captured = capsys.readouterr()
        assert "recover failed: no such directory" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["optimize", "pi[1](employees)", "--wal"],
        ["explain", "pi[1](employees)", "--wal"],
    ], ids=lambda argv: argv[0])
    def test_wal_missing_directory_fails(self, argv, tmp_path, capsys):
        # The library recovers an empty database from a missing
        # directory; the plan would then name an unknown relation and
        # hide the mistyped path.
        missing = str(tmp_path / "nothing")
        assert main(argv + [missing]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"{argv[0]} failed: no such directory: {missing}\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["recover"],
        ["optimize", "pi[1](employees)", "--wal"],
        ["explain", "pi[1](employees)", "--wal"],
    ], ids=lambda argv: argv[0])
    def test_malformed_checkpoint_fails(self, argv, tmp_path, capsys):
        from repro.durability import CHECKPOINT_NAME

        state = tmp_path / "state"
        state.mkdir()
        (state / CHECKPOINT_NAME).write_text("{not json")
        assert main(argv + [str(state)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"{argv[0]} failed: malformed checkpoint"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["recover"],
        ["optimize", "pi[1](employees)", "--wal"],
        ["explain", "pi[1](employees)", "--wal"],
    ], ids=lambda argv: argv[0])
    def test_unreplayable_log_fails(self, argv, tmp_path, capsys):
        # A log copied without its checkpoint: its CRC-valid insert
        # names a relation the empty base never created.
        from repro.durability import WAL_NAME, WriteAheadLog

        state = tmp_path / "state"
        state.mkdir()
        wal = WriteAheadLog(state / WAL_NAME, fsync=False)
        wal.commit("insert", {"name": "ghost", "rows": [{"t": [1]}]}, 1)
        wal.close()
        assert main(argv + [str(state)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"{argv[0]} failed: unreplayable insert record at lsn 1: "
            "SchemaError: unknown relation ghost\n"
        )
        assert captured.out == ""

    def test_dump_into_a_missing_directory_fails(self, tmp_path, capsys):
        state = self._seed_state(tmp_path)
        dump = str(tmp_path / "missing" / "snapshot.json")
        assert main(["recover", state, "--dump", dump]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"recover failed: cannot write {dump}: "
            "No such file or directory\n"
        )
        assert captured.out == ""

    def test_checkpoint_with_an_impossible_schema_fails(
        self, tmp_path, capsys
    ):
        from repro.durability import CHECKPOINT_NAME

        state = tmp_path / "state"
        state.mkdir()
        (state / CHECKPOINT_NAME).write_text(
            '{"format": 1, "lsn": 0, "generation": 0, "database": '
            '{"schema": {"r": {"arity": 2, "keys": [[5]]}}}}'
        )
        assert main(["recover", str(state)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "recover failed: invalid schema for 'r': key (5,) of r has a "
            "column outside range(2)\n"
        )

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
