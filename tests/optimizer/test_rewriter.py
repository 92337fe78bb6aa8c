"""Tests for rules and the rewriter (Section 4.4)."""

import pytest

from repro.optimizer.constraints import (
    REWRITE_MEMO_SIZE,
    Catalog,
    RelationInfo,
)
from repro.optimizer.parser import parse_plan
from repro.optimizer.plan import (
    Difference,
    Intersect,
    MapNode,
    Project,
    Scan,
    Select,
    Union,
)
from repro.optimizer.rewriter import Rewriter, verify_equivalence
from repro.types.values import Tup
from tests.conftest import assert_equivalent, hr_plans, shuffled_draws


@pytest.fixture()
def db(hr_db):
    return hr_db(seed=0, employees=12, students=8, overlap=3)


def optimize(plan, catalog):
    rewriter = Rewriter(catalog)
    return rewriter.optimize(plan), rewriter


class TestRuleFiring:
    def test_map_through_union(self, db):
        plan = MapNode("f", lambda t: Tup((t[0],)),
                       Union(Scan("employees"), Scan("students")))
        optimized, rw = optimize(plan, db.catalog)
        assert isinstance(optimized, Union)
        assert isinstance(optimized.left, MapNode)
        assert any(t.rule.name == "push-map-through-union" for t in rw.trace)

    def test_project_through_union(self, db):
        plan = Project((0,), Union(Scan("employees"), Scan("students")))
        optimized, _rw = optimize(plan, db.catalog)
        assert isinstance(optimized, Union)

    def test_project_through_diff_with_key(self, db):
        plan = Project((0,), Difference(Scan("employees"), Scan("students")))
        optimized, rw = optimize(plan, db.catalog)
        assert isinstance(optimized, Difference)
        assert any(
            "difference" in t.rule.name for t in rw.trace
        )

    def test_project_through_diff_without_key_blocked(self, db):
        plan = Project((0,), Difference(Scan("employees"), Scan("contractors")))
        optimized, rw = optimize(plan, db.catalog)
        assert optimized == plan
        assert not rw.trace

    def test_project_through_intersect_with_key(self, db):
        plan = Project((0,), Intersect(Scan("employees"), Scan("students")))
        optimized, _rw = optimize(plan, db.catalog)
        assert isinstance(optimized, Intersect)

    def test_injective_map_through_difference(self, db):
        plan = MapNode(
            "tag", lambda t: Tup(("#", *t)),
            Difference(Scan("employees"), Scan("students")),
            injective=True,
        )
        optimized, _rw = optimize(plan, db.catalog)
        assert isinstance(optimized, Difference)

    def test_noninjective_map_through_difference_blocked(self, db):
        plan = MapNode(
            "collapse", lambda t: Tup((0,)),
            Difference(Scan("employees"), Scan("students")),
            injective=False,
        )
        optimized, _rw = optimize(plan, db.catalog)
        assert optimized == plan

    def test_select_through_union(self, db):
        plan = Select("p", lambda t: True,
                      Union(Scan("employees"), Scan("students")))
        optimized, _rw = optimize(plan, db.catalog)
        assert isinstance(optimized, Union)
        assert isinstance(optimized.left, Select)

    def test_fuse_projections(self, db):
        plan = Project((0,), Project((0, 1), Scan("employees")))
        optimized, _rw = optimize(plan, db.catalog)
        assert optimized == Project((0,), Scan("employees"))

    def test_nested_opportunities_found(self, db):
        # Projection above a union above another union: both pushed.
        plan = Project(
            (0,),
            Union(
                Union(Scan("employees"), Scan("students")),
                Scan("contractors"),
            ),
        )
        optimized, rw = optimize(plan, db.catalog)
        assert isinstance(optimized, Union)
        assert len(rw.trace) >= 2

    def test_explain_mentions_justifications(self, db):
        plan = Project((0,), Union(Scan("employees"), Scan("students")))
        _optimized, rw = optimize(plan, db.catalog)
        explanation = "\n".join(rw.explain())
        assert "parametricity" in explanation


class TestEquivalence:
    def test_all_fired_rewrites_preserve_answers(self, db, hr_db):
        keyed = [
            hr_db(seed=s, employees=6 + s, students=5,
                  overlap=2).snapshot()
            for s in range(8)
        ]
        plans = [
            Project((0,), Union(Scan("employees"), Scan("students"))),
            Project((0,), Difference(Scan("employees"), Scan("students"))),
            MapNode("w", lambda t: Tup((t[1],)),
                    Union(Scan("employees"), Scan("students"))),
            Select("p", lambda t: t[0] % 2 == 0,
                   Union(Scan("employees"), Scan("students"))),
        ]
        for plan in plans:
            optimized, _rw = optimize(plan, db.catalog)
            assert verify_equivalence(plan, optimized, keyed) is None

    def test_verify_equivalence_catches_difference(self, random_db):
        a = Scan("R")
        b = Project((0, 1), Difference(Scan("R"), Scan("S")))
        dbs = [random_db(seed, names=("R", "S")) for seed in range(20)]
        assert verify_equivalence(a, b, dbs) is not None

    def test_verify_equivalence_accepts_identical(self, random_db):
        dbs = [random_db(seed, names=("R",)) for seed in range(5)]
        assert verify_equivalence(Scan("R"), Scan("R"), dbs) is None


class TestTrace:
    def test_trace_records_before_after(self, db):
        plan = Project((0,), Union(Scan("employees"), Scan("students")))
        _optimized, rw = optimize(plan, db.catalog)
        assert rw.trace
        trace = rw.trace[0]
        assert "=>" in str(trace)
        assert trace.before != trace.after


@pytest.fixture()
def rewrites(monkeypatch):
    """The plans ``Rewriter._rewrite_node`` rewrote while the test ran:
    one per rewrite the catalog did not remember."""
    calls = []
    rewrite = Rewriter._rewrite_node

    def counting(self, plan):
        calls.append(plan)
        return rewrite(self, plan)

    monkeypatch.setattr(Rewriter, "_rewrite_node", counting)
    return calls


class TestRewriteMemo:
    """The catalog remembers each plan object's rewrite: optimizing it
    again returns the same normal form without rewriting, until
    ``Catalog.add`` declares a relation."""

    def test_one_rewrite_per_plan_object(self, hr_db, rewrites):
        """400 draws over 40 plan objects rewrite 40 times (rewriting
        every draw makes 400)."""
        catalog = hr_db(seed=0, employees=6, students=4, overlap=2).catalog
        plans = list(hr_plans(range(40)))
        outputs = []
        for k in shuffled_draws(40, 10):
            rewriter = Rewriter(catalog)
            outputs.append((k, rewriter.optimize(plans[k]), rewriter.explain()))
        assert len(rewrites) == 40
        first = {}
        for k, normal, explain in outputs:
            assert first.setdefault(k, (normal, explain)) == (normal, explain)
            assert first[k][0] is normal

    def test_memo_keeps_the_most_recent_rewrites(self, rewrites):
        plans = [Project((0,), Union(Scan(f"r{i}"), Scan("s")))
                 for i in range(REWRITE_MEMO_SIZE + 1)]
        catalog = Catalog()
        for plan in plans:
            Rewriter(catalog).optimize(plan)
        Rewriter(catalog).optimize(plans[-1])
        assert len(rewrites) == len(plans)
        Rewriter(catalog).optimize(plans[0])  # the least recently used
        assert len(rewrites) == len(plans) + 1

    def test_short_lived_plans_get_their_own_rewrites(self, db):
        """Each root is dropped after its rewrite, so the next one, the
        only object built in its place, may get its address: an entry
        kept by ``id`` alone would hand it the dropped plan's normal
        form.  Only the key column's projection passes the difference."""
        child = Difference(Scan("employees"), Scan("students"))
        for i in range(20):
            plan = Project((i % 2,), child)
            normal = Rewriter(db.catalog).optimize(plan)
            assert isinstance(normal, Difference) == (i % 2 == 0)
            del plan, normal

    def test_add_forgets_rewrites(self):
        """A key declared after a rewrite lets the same plan object's
        projection through the difference."""
        plan = parse_plan("pi[1](employees - students)")
        catalog = Catalog([RelationInfo("employees", 3),
                           RelationInfo("students", 3)])
        rewriter = Rewriter(catalog)
        assert rewriter.optimize(plan) == plan
        assert not rewriter.trace
        for name in ("employees", "students"):
            catalog.add(RelationInfo(name, 3, keys=((0,),),
                                     shared_keys={(0,): "ssn"}))
        pushed = rewriter.optimize(plan)
        assert pushed == Difference(Project((0,), Scan("employees")),
                                    Project((0,), Scan("students")))
        assert [t.rule.name for t in rewriter.trace] == [
            "push-project-through-difference"
        ]

    def test_equal_plans_keep_their_own_callables(self, db):
        """``Plan.__eq__`` ignores callables, so two selections binding
        one predicate name to different callables are equal plans.  Each
        normal form holds its own callable, and ``Database.run`` answers
        each as the reference does."""

        def even(t):
            return t[0] % 2 == 0

        def odd(t):
            return t[0] % 2 == 1

        plans = {
            fn: Select("parity", fn,
                       Union(Scan("employees"), Scan("students")))
            for fn in (even, odd)
        }
        assert plans[even] == plans[odd]
        answers = set()
        for fn in (even, odd, even, odd):
            normal = Rewriter(db.catalog).optimize(plans[fn])
            assert isinstance(normal, Union)
            assert normal.left.predicate is fn
            assert normal.right.predicate is fn
            result = db.run(normal)
            assert_equivalent(normal, db, result)
            assert result.value == db.run_reference(plans[fn]).value
            answers.add(result.value)
        assert len(answers) == 2
