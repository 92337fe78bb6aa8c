"""Tests for cardinality estimation and cost-based plan choice."""

import pytest

from repro.optimizer.cost import Stats, choose_plan, estimate
from repro.optimizer.parser import parse_plan
from repro.optimizer.rewriter import Rewriter
from repro.optimizer.plan import (
    Difference,
    Join,
    MapNode,
    Product,
    Project,
    Scan,
    Select,
    Union,
)


@pytest.fixture()
def db(hr_db):
    return hr_db(seed=0, employees=40, students=25, overlap=8)


@pytest.fixture()
def stats(db):
    return Stats.of_database(db.snapshot())


class TestStats:
    def test_of_database(self, stats):
        assert stats.rows["employees"] == 40
        assert stats.widths["employees"] == 3

    def test_missing_relation_defaults(self):
        s = Stats()
        e = estimate(Scan("ghost"), s)
        assert e.rows == 0


class TestEstimates:
    def test_scan(self, stats):
        e = estimate(Scan("employees"), stats)
        assert e.rows == 40
        assert e.width == 3
        assert e.work == 0

    def test_project_narrows(self, stats):
        e = estimate(Project((0,), Scan("employees")), stats)
        assert e.width == 1
        assert e.work == 40 * 3

    def test_union_adds(self, stats):
        e = estimate(Union(Scan("employees"), Scan("students")), stats)
        assert e.rows == 65

    def test_select_reduces_rows(self, stats):
        e = estimate(Select("p", lambda t: True, Scan("employees")), stats)
        assert e.rows < 40

    def test_product_multiplies(self, stats):
        e = estimate(Product(Scan("employees"), Scan("students")), stats)
        assert e.rows == 40 * 25
        assert e.width == 6

    def test_difference_and_intersect(self, stats):
        d = estimate(Difference(Scan("employees"), Scan("students")), stats)
        assert 0 < d.rows <= 40
        i = estimate(
            __import__("repro.optimizer.plan", fromlist=["Intersect"]).Intersect(
                Scan("employees"), Scan("students")
            ),
            stats,
        )
        assert i.rows <= 25

    def test_map_preserves_rows(self, stats):
        e = estimate(
            MapNode("f", lambda t: t, Scan("employees")), stats
        )
        assert e.rows == 40

    def test_join_estimate(self, stats):
        e = estimate(Join(((0, 0),), Scan("employees"), Scan("students")), stats)
        assert e.rows > 0
        assert e.width == 6


class TestChoosePlan:
    def test_keeps_cheaper_rewrite(self, db, stats):
        plan = parse_plan("pi[1](employees - students)")
        chosen, before, after = choose_plan(plan, db.catalog, stats)
        assert after.work <= before.work
        assert chosen != plan  # the rewrite is estimated cheaper here

    def test_estimated_matches_measured_direction(self, db, stats):
        # The estimate and the executor must agree on which plan wins.
        plan = parse_plan("pi[1](employees U students)")
        chosen, before, after = choose_plan(plan, db.catalog, stats)
        from repro.optimizer.rewriter import Rewriter

        rewritten = Rewriter(db.catalog).optimize(plan)
        measured_before = db.run(plan).work
        measured_after = db.run(rewritten).work
        estimated_says_rewrite = after.work <= before.work
        measured_says_rewrite = measured_after <= measured_before
        assert estimated_says_rewrite == measured_says_rewrite

    def test_no_rewrite_is_identity(self, db, stats):
        plan = Scan("employees")
        chosen, before, after = choose_plan(plan, db.catalog, stats)
        assert chosen == plan
        assert before.work == after.work


#: Four HR plans whose rewrite the cost model judges; the executor's
#: measured work is the check.
AGREEMENT_PLANS = [
    "pi[1](employees U students)",
    "pi[1](employees - students)",
    "sigma[$1>1010](employees U students)",
    "pi[1](pi[1,2](employees) - pi[1,2](students))",
]


class TestWinnerAgreement:
    """The estimator must pick the same winner as the executor: for at
    least 3 of the 4 plans, "the rewrite is no more work" reads the
    same off the estimates and off measured work (E-ABLATION-COST).
    All 4 agree at size 50; at size 200 the selection over a union
    does not."""

    @pytest.mark.parametrize("size", [50, 200])
    def test_cost_model_agrees_with_measurement(self, hr_db, size):
        db = hr_db(seed=0, employees=size, students=size // 2,
                   overlap=size // 5)
        stats = Stats.of_database(db.snapshot())
        agreements = 0
        for text in AGREEMENT_PLANS:
            plan = parse_plan(text)
            rewritten = Rewriter(db.catalog).optimize(plan)
            estimated = (
                estimate(rewritten, stats).work <= estimate(plan, stats).work
            )
            measured = db.run(rewritten).work <= db.run(plan).work
            agreements += estimated == measured
        assert agreements >= 3
