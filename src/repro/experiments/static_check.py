"""Experiment E-STATIC: the static genericity analyzer is sound.

Section 5 hopes that genericity properties "can be verified or
discovered automatically".  :mod:`repro.genericity.static_analysis`
derives guaranteed profiles from the closure theorems; this experiment
checks soundness against the dynamic machinery: wherever the analyzer
promises "generic w.r.t. class C in mode m", the randomized
counterexample search must come up empty for that (class, mode).
"""

from __future__ import annotations

from typing import Sequence

from ..algebra.query import Query
from ..genericity.hierarchy import GenericitySpec
from ..genericity.static_analysis import ClassBound, analyze_plan
from ..genericity.witnesses import find_counterexamples
from ..mappings.extensions import REL, STRONG
from ..optimizer.constraints import Catalog, RelationInfo
from ..optimizer.plan import (
    Difference,
    Intersect,
    Join,
    Plan,
    Product as PlanProduct,
    Project,
    Scan,
    Union,
    execute,
)
from ..optimizer.schema_infer import plan_type
from ..types.ast import Product, SetType, TypeVar
from ..types.values import Tup, Value
from .report import ExperimentResult

__all__ = ["static_soundness", "plan_as_query"]


def plan_as_query(plan: Plan, relations: Sequence[str], arity: int = 2) -> Query:
    """Wrap a plan over named base relations as a typed Query.

    The query input is the tuple of base relations in ``relations``
    order; all columns range over one type variable (an abstract
    domain), matching the genericity setting."""
    names = tuple(relations)

    def fn(v: Value) -> Value:
        db = dict(zip(names, v if isinstance(v, Tup) else Tup((v,))))
        return execute(plan, db).value

    x = TypeVar("X")
    rel_type = SetType(Product(tuple(x for _ in range(arity))))
    input_type = (
        Product(tuple(rel_type for _ in names)) if len(names) > 1 else rel_type
    )
    # The output columns all range over the same abstract domain.
    catalog = Catalog(RelationInfo(name, arity) for name in names)
    return Query(
        name=f"plan[{plan}]", fn=fn, input_type=input_type,
        output_type=plan_type(plan, catalog),
    )


_SPECS = {
    ClassBound.ALL: GenericitySpec("all", "all"),
    ClassBound.INJECTIVE: GenericitySpec("injective", "injective"),
}


def static_soundness(seed: int = 0, trials: int = 60) -> ExperimentResult:
    """Check every static guarantee dynamically."""
    result = ExperimentResult(
        "E-STATIC",
        "Static genericity analysis is sound (Section 5 direction)",
        "whenever the closure-theorem analysis guarantees genericity for "
        "a (class, mode) cell, randomized search finds no violation",
        ("plan", "static profile", "cells promised", "violations"),
    )
    plans = [
        (Project((0,), Union(Scan("R"), Scan("S"))), ("R", "S")),
        (Project((0,), Difference(Scan("R"), Scan("S"))), ("R", "S")),
        (Union(Intersect(Scan("R"), Scan("S")), Scan("R")), ("R", "S")),
        (PlanProduct(Project((0,), Scan("R")), Project((1,), Scan("S"))),
         ("R", "S")),
        (Join(((0, 0),), Scan("R"), Scan("S")), ("R", "S")),
        (Project((0,), Join(((1, 0),), Scan("R"), Scan("S"))), ("R", "S")),
        (Difference(Scan("R"), Intersect(Scan("S"), Scan("R"))), ("R", "S")),
    ]
    queries = [plan_as_query(plan, relations) for plan, relations in plans]
    profiles = [analyze_plan(plan) for plan, _ in plans]
    # The guarantee covers `bound` and every smaller class; the
    # strongest check is at `bound` itself.  Plans promised the same
    # (class, mode) cell are searched together.
    cells: dict[tuple[ClassBound, str], list[int]] = {}
    for i, profile in enumerate(profiles):
        for mode, bound in ((REL, profile.rel), (STRONG, profile.strong)):
            if bound is not ClassBound.NONE:
                cells.setdefault((bound, mode), []).append(i)
    promised = [0] * len(plans)
    violations = [0] * len(plans)
    for (bound, mode), members in cells.items():
        searches = find_counterexamples(
            [queries[i] for i in members],
            _SPECS[bound],
            mode,
            trials=trials,
            seed=seed,
        )
        for i, search in zip(members, searches):
            promised[i] += 1
            violations[i] += int(search.found)
    for (plan, _), profile, count, found in zip(
        plans, profiles, promised, violations
    ):
        result.add(str(plan), str(profile), count, found)
        result.require(found == 0, f"{plan}: unsound guarantee")
    return result
