"""EXPLAIN ANALYZE: report contents, deterministic rendering, the
text tree layout, and the ``python -m repro explain`` command.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.cli import main
from repro.engine.exec import PlanCache
from repro.engine.workload import hr_database
from repro.obs import (
    MODES,
    ExplainReport,
    Span,
    explain,
    render_span_tree,
)
from repro.optimizer.parser import parse_plan

PLAN_TEXT = "pi[1](employees - students)"


@pytest.fixture()
def db():
    return hr_database(random.Random(0), employees=60, students=40,
                       overlap=15)


@pytest.fixture()
def plan():
    return parse_plan(PLAN_TEXT)


class TestExplain:
    def test_all_modes_agree_on_answer_and_shape(self, plan, db):
        reference = db.run_reference(plan)
        reports = [
            explain(plan, db, mode=mode, use_cache=False) for mode in MODES
        ]
        for report in reports:
            assert report.rows == len(reference.value)
            assert report.work == reference.work
            assert report.root.total_work() == reference.work
            assert report.plan == str(plan)
        # No shared subtrees here, so the cold compiled tree has the
        # reference's labels, work and shape.
        reference_report, compiled = reports

        def shape(root):
            return [
                (s.label, s.work, len(s.children)) for s in root.walk()
            ]

        assert shape(compiled.root) == shape(reference_report.root)

    def test_explain_compiled_mode(self, plan, db):
        report = explain(plan, db, mode="compiled", use_cache=False)
        reference = db.run_reference(plan)
        assert report.mode == "compiled"
        assert report.rows == len(reference.value)
        assert report.work == reference.work
        assert report.root.rows == len(reference.value)

    def test_cache_stats_delta_shows_miss_then_hit(self, plan, db):
        cold = explain(plan, db, mode="compiled")
        assert cold.cache_stats["misses"] >= 1
        assert cold.cache_stats["hits"] == 0
        assert cold.cache_stats["puts"] >= 1
        warm = explain(plan, db, mode="compiled")
        assert warm.cache_stats["hits"] == 1
        assert warm.cache_stats["misses"] == 0
        assert warm.cache_stats["puts"] == 0
        assert warm.root.cache == "hit"
        assert warm.rows == cold.rows and warm.work == cold.work

    def test_a_refused_put_shows_in_the_delta_and_header(self, plan, db):
        db.plan_cache = PlanCache(capacity=1)
        hot = parse_plan("pi[1](employees U students)")
        for _ in range(10):
            db.run(hot)  # stored, then looked up 9 times more
        report = explain(plan, db, mode="compiled")
        assert report.cache_stats == {
            "hits": 0, "misses": 1, "puts": 0, "refused": 1,
            "evictions": 0, "entries": 1,
        }
        assert " puts=0 refused=1]" in report.render(wall=False)

    def test_use_cache_false_never_touches_the_database_cache(
        self, plan, db
    ):
        before = db.plan_cache.stats()
        report = explain(plan, db, mode="compiled", use_cache=False)
        assert report.cache_stats is None
        assert db.plan_cache.stats() == before

    def test_plain_mapping_db_has_no_cache_stats(self, plan):
        relations = hr_database(
            random.Random(0), employees=30, students=20
        ).relations
        report = explain(plan, relations)
        assert report.cache_stats is None
        assert report.mode == "reference"
        assert report.rows >= 0

    def test_invalid_mode_raises(self, plan, db):
        with pytest.raises(ValueError, match="mode must be one of"):
            explain(plan, db, mode="vectorized")

    def test_to_dict_without_wall_is_byte_deterministic(self, plan, db):
        first = explain(plan, db, mode="compiled", use_cache=False)
        second = explain(plan, db, mode="compiled", use_cache=False)
        assert (
            json.dumps(first.to_dict(wall=False))
            == json.dumps(second.to_dict(wall=False))
        )
        tree = first.to_dict(wall=False)["tree"]
        assert "wall_s" not in tree
        assert "wall_s" in first.to_dict()["tree"]

    def test_caller_supplied_tracer_keeps_the_raw_span(self, plan, db):
        from repro.obs import Tracer

        tracer = Tracer()
        report = explain(plan, db, mode="reference", tracer=tracer)
        assert tracer.last is report.root
        assert len(tracer) == 1


class TestRendering:
    def test_tree_layout_connectors(self):
        root = Span("minus")
        left, right = Span("employees"), Span("students")
        left.rows, right.rows, root.rows = 5, 3, 2
        root.children = [left, right]
        text = render_span_tree(root, wall=False)
        assert text.splitlines() == [
            "minus  [rows=2 work=0]",
            "├─ employees  [rows=5 work=0]",
            "└─ students  [rows=3 work=0]",
        ]

    def test_annotations_appear_in_the_line(self):
        span = Span("join")
        span.rows, span.work = 4, 9
        span.cache = "hit"
        line = render_span_tree(span, wall=False)
        assert line == "join  [rows=4 work=9 cache=hit]"
        assert "wall=" in render_span_tree(span, wall=True)

    def test_report_render_header(self, plan, db):
        report = explain(plan, db, mode="compiled")
        text = report.render(wall=False)
        assert text.startswith(
            f"EXPLAIN ANALYZE (mode=compiled) {report.plan}"
        )
        assert f"rows={report.rows} work={report.work}" in text
        assert "cache[hits=" in text
        plain = ExplainReport(
            mode="reference", plan="p", rows=1, work=2, root=Span("p")
        )
        assert "cache[" not in plain.render()

    def test_degraded_events_surface_in_render_and_dict(self):
        events = [{"mode": "compiled", "to": "reference", "error": "X: boom"}]
        report = ExplainReport(
            mode="compiled", plan="p", rows=1, work=2, root=Span("p"),
            degraded=events,
        )
        assert "degraded: compiled -> reference (X: boom)" in report.render(
            wall=False
        )
        assert report.to_dict()["degraded"] == events


class TestPlainMapping:
    """``explain`` over a bare relation mapping (no Database attached)."""

    def test_reference_mode(self, plan, db):
        report = explain(plan, db.relations, mode="reference")
        want = db.run_reference(plan)
        assert report.rows == len(want.value)
        assert report.work == want.work
        assert report.cache_stats is None

    def test_compiled_mode_runs_on_the_reference(self, plan, db):
        """A bare mapping has no compiler state: every mode runs the
        reference interpreter, and the report says so."""
        report = explain(plan, db.relations, mode="compiled")
        want = db.run_reference(plan)
        assert report.mode == "reference"
        assert report.rows == len(want.value)
        assert report.work == want.work
        # Reference spans count rows at every node.
        assert all(span.rows is not None for span in report.root.walk())


class TestCli:
    def test_explain_text_all_modes(self, capsys):
        assert main(["explain", "--size", "40"]) == 0
        out = capsys.readouterr().out
        for mode in MODES:
            assert f"EXPLAIN ANALYZE (mode={mode})" in out
        assert "├─" in out or "└─" in out
        assert "employees" in out and "students" in out

    def test_default_output_shows_the_compiled_tree(self, capsys):
        # The reference report bypasses the result cache, so the
        # compiled run lowers the plan instead of hitting its entry.
        assert main(["explain", "--size", "40"]) == 0
        out = capsys.readouterr().out
        compiled = out.split("EXPLAIN ANALYZE (mode=compiled)")[1]
        spans = [line for line in compiled.splitlines() if "  [rows=" in line]
        assert len(spans) > 1
        assert "cache=hit" not in out

    def test_explain_json_single_mode(self, capsys):
        assert main([
            "explain", PLAN_TEXT, "--mode", "compiled", "--json",
            "--size", "30",
        ]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert [r["mode"] for r in reports] == ["compiled"]
        assert reports[0]["plan"]
        assert reports[0]["tree"]["op"]

    def test_explain_warm_run_shows_cache_hit(self, capsys):
        assert main([
            "explain", PLAN_TEXT, "--mode", "compiled", "--warm", "1",
            "--size", "30",
        ]) == 0
        assert "cache=hit" in capsys.readouterr().out

    def test_explain_bad_plan_exits_2(self, capsys):
        assert main(["explain", "pi[1]((("]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_explain_schema_errors_exit_2(self, capsys):
        assert main(["explain", "pi[9](employees)", "--size", "10"]) == 2
        assert "out of range" in capsys.readouterr().err
        assert main(["explain", "pi[1](nosuchrel)", "--size", "10"]) == 2
        assert "unknown relation" in capsys.readouterr().err
