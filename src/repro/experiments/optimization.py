"""Experiments for Section 4.4: optimization from genericity/parametricity."""

from __future__ import annotations

import random

from ..engine.workload import hr_database, random_database
from ..optimizer.plan import Difference, MapNode, Project, Scan, Union
from ..optimizer.rewriter import Rewriter, verify_equivalence
from ..types.values import Tup
from .report import ExperimentResult

__all__ = ["opt_4_4", "opt_cost_sweep"]


def opt_4_4(seed: int = 0, verification_dbs: int = 60) -> ExperimentResult:
    """The Section 4.4 equivalences, end to end.

    * ``map(f)(R U S) = map(f)(R) U map(f)(S)`` for an arbitrary f;
    * ``pi_1(R U S) = pi_1(R) U pi_1(S)``;
    * ``pi_1(R - S) = pi_1(R) - pi_1(S)`` fires only under the shared
      key; without the key the rewriter declines, and force-applying the
      rewrite is caught by the verifier.
    """
    result = ExperimentResult(
        "E-OPT",
        "Section 4.4: rewrites justified by genericity/parametricity",
        "map/projection push through union unconditionally; projection "
        "pushes through difference only under a key constraint",
        ("case", "rewrite fired", "plans equivalent", "expected"),
    )
    rng = random.Random(seed)
    db = hr_database(rng, employees=30, students=20, overlap=8)
    # Unconstrained rewrites must hold on *arbitrary* databases; the
    # key-justified rewrite is only promised on instances satisfying the
    # declared constraints, so it is verified on constraint-respecting
    # workloads (many seeds/sizes) instead.
    random_dbs = [db.snapshot()] + [
        random_database(rng, ("employees", "students", "contractors"),
                        arity=3)
        for _ in range(verification_dbs)
    ]
    keyed_dbs = [
        hr_database(
            random.Random(seed + i),
            employees=5 + 3 * i,
            students=4 + 2 * i,
            overlap=i,
        ).snapshot()
        for i in range(verification_dbs // 3)
    ]

    def opaque(t: Tup) -> Tup:
        # A "user-defined method about which we know nothing".
        return Tup((repr(t[0]), t[2], t[1]))

    cases = []
    # 1. map(f) through union — any f.
    plan1 = MapNode("opaque", opaque,
                    Union(Scan("employees"), Scan("students")))
    cases.append(("map-through-union", plan1, True, random_dbs))
    # 2. projection through union.
    plan2 = Project((0,), Union(Scan("employees"), Scan("students")))
    cases.append(("project-through-union", plan2, True, random_dbs))
    # 3. projection through difference WITH shared key.
    plan3 = Project((0,), Difference(Scan("employees"), Scan("students")))
    cases.append(("project-through-diff (key)", plan3, True, keyed_dbs))
    # 4. projection through difference WITHOUT key must NOT fire.
    plan4 = Project((0,), Difference(Scan("employees"), Scan("contractors")))
    cases.append(("project-through-diff (no key)", plan4, False, random_dbs))

    for label, plan, expect_fire, verification in cases:
        rewriter = Rewriter(db.catalog)
        optimized = rewriter.optimize(plan)
        fired = bool(rewriter.trace)
        counterexample = verify_equivalence(plan, optimized, verification)
        equivalent = counterexample is None
        result.add(label, fired, equivalent, "fires" if expect_fire else "skips")
        result.require(fired == expect_fire, f"{label}: rule firing")
        result.require(equivalent, f"{label}: rewritten plan must agree")

    # 5. The unsound variant of case 4, applied blindly, is caught.
    unsound = Difference(
        Project((0,), Scan("employees")),
        Project((0,), Scan("contractors")),
    )
    counterexample = verify_equivalence(plan4, unsound, random_dbs)
    result.add("unsound diff-push detected", "forced", counterexample is not None,
               "caught")
    result.require(counterexample is not None,
                   "verifier must catch the unsound rewrite")
    return result


def opt_cost_sweep(seed: int = 0, sizes=(50, 100, 200, 400)) -> ExperimentResult:
    """Measured work reduction of the justified rewrites as data scales.

    The paper offers the rewrites as optimizations; this experiment
    quantifies them under the width-weighted work model."""
    result = ExperimentResult(
        "E-OPT-COST",
        "Section 4.4: measured work, original vs optimized plans",
        "rewrites preserve answers and reduce measured work",
        ("relation size", "plan", "work before", "work after", "speedup"),
    )
    rng = random.Random(seed)
    for size in sizes:
        db = hr_database(rng, employees=size, students=size // 2,
                         overlap=size // 4)
        plans = {
            "pi(R U S)": Project(
                (0,), Union(Scan("employees"), Scan("students"))
            ),
            "pi(R - S)": Project(
                (0,), Difference(Scan("employees"), Scan("students"))
            ),
        }
        for name, plan in plans.items():
            rewriter = Rewriter(db.catalog)
            optimized = rewriter.optimize(plan)
            before = db.run(plan)
            after = db.run(optimized)
            result.require(before.value == after.value,
                           f"{name}@{size}: answers differ")
            speedup = before.work / after.work if after.work else float("inf")
            result.add(size, name, before.work, after.work,
                       f"{speedup:.2f}x")
            result.require(after.work <= before.work,
                           f"{name}@{size}: work must not increase")
    return result
