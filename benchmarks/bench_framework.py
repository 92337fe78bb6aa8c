"""Framework performance benchmarks (the E-PERF sweep of DESIGN.md).

These measure the reproduction's own machinery — extension-relation
decision cost vs instance size and nesting depth, invariance-check
throughput, classification latency, System F evaluation and plan
execution — so regressions in the substrate are visible.
"""

import random

import pytest

from repro.algebra.operators import projection, select_eq
from repro.engine.workload import hr_database
from repro.genericity.classify import classify
from repro.genericity.invariance import check_invariance
from repro.lambda2.parametricity import check_parametricity
from repro.lambda2.prelude import build_prelude
from repro.mappings.extensions import REL, STRONG
from repro.mappings.families import MappingFamily
from repro.mappings.generators import (
    random_domain,
    random_mapping_in_class,
    random_relation_value,
)
from repro.engine.exec import execute_compiled
from repro.engine.workload import random_database, random_plan
from repro.optimizer.plan import (
    Difference,
    Join,
    Project,
    Scan,
    execute_reference,
)
from repro.optimizer.rewriter import Rewriter
from repro.types.ast import INT, set_of
from repro.types.values import CVSet


def _family(rng, size=6):
    left = random_domain(rng, size, INT)
    right = random_domain(rng, size, INT, offset=100)
    return MappingFamily(
        {"int": random_mapping_in_class(rng, "all", left, right, INT)}
    )


@pytest.mark.parametrize("size", [8, 32, 128])
def test_set_rel_holds_scaling(benchmark, size):
    """{H}^rel decision cost vs relation cardinality."""
    rng = random.Random(0)
    fam = _family(rng)
    rel = fam.extend(set_of(INT * INT), REL)
    domain = list(fam["int"].source_domain)
    r1 = random_relation_value(rng, 2, domain, min(size, len(domain) ** 2))
    from repro.genericity.invariance import sample_image

    r2 = sample_image(rel, r1, rng)
    assert r2 is not None
    result = benchmark(lambda: rel.holds(r1, r2))
    assert result


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_strong_holds_vs_nesting_depth(benchmark, depth):
    """{H}^strong decision cost vs set-nesting depth."""
    rng = random.Random(1)
    fam = _family(rng, size=3)
    t = INT
    for _ in range(depth):
        t = set_of(t)
    rel = fam.extend(t, STRONG)
    from repro.genericity.invariance import related_pair
    from repro.mappings.generators import random_value

    domain = list(fam["int"].source_domain)
    value = random_value(rng, t, {"int": domain}, max_collection=2)
    pair = related_pair(rel, value, STRONG, rng)
    if pair is None:
        pytest.skip("no strong partner for sampled value")
    r1, r2 = pair
    assert benchmark(lambda: rel.holds(r1, r2))


def test_invariance_check_throughput(benchmark):
    """Full invariance checks per second for projection."""
    rng = random.Random(2)
    fam = _family(rng)
    domain = list(fam["int"].source_domain)
    inputs = [random_relation_value(rng, 2, domain, 6) for _ in range(10)]

    def check():
        report = check_invariance(
            projection((0,), 2), fam, REL, inputs, rng=random.Random(3)
        )
        assert report.invariant
        return report

    benchmark(check)


def test_classification_latency(benchmark):
    """Time to fully classify one equality-using operation."""
    result = benchmark.pedantic(
        lambda: classify(select_eq(0, 1, 2), trials=15),
        rounds=2,
        iterations=1,
        warmup_rounds=0,
    )
    assert not result.cell("all", REL).generic


def test_prelude_build(benchmark):
    """System F prelude: parse, typecheck and evaluate all entries."""
    prelude = benchmark(build_prelude)
    assert "append" in prelude.entries


def test_parametricity_check_append(benchmark):
    """Logical-relation check for append at its polymorphic type."""
    prelude = build_prelude()

    def check():
        report = check_parametricity(
            prelude.value("append"), prelude.type_of("append"), "append"
        )
        assert report.parametric
        return report

    benchmark(check)


@pytest.mark.parametrize("size", [100, 400, 1600])
def test_plan_execution_scaling(benchmark, size):
    """Width-weighted executor throughput on the HR workload."""
    db = hr_database(random.Random(4), employees=size, students=size // 2,
                     overlap=size // 4)
    plan = Project((0,), Difference(Scan("employees"), Scan("students")))
    result = benchmark(lambda: db.run(plan))
    assert isinstance(result.value, CVSet)


@pytest.mark.parametrize("size", [100, 400, 1600])
def test_compiled_executor_scaling(benchmark, size):
    """Compiled executor (cold, uncached, no artifact memo) on the HR
    workload: every call lowers the plan afresh."""
    db = hr_database(random.Random(4), employees=size, students=size // 2,
                     overlap=size // 4)
    plan = Project((0,), Difference(Scan("employees"), Scan("students")))
    result = benchmark(
        lambda: execute_compiled(plan, db.relations)
    )
    reference = execute_reference(plan, db.relations)
    assert result.value == reference.value
    assert result.work == reference.work


@pytest.mark.parametrize("size", [100, 400, 1600])
def test_cached_executor_warm_scaling(benchmark, size):
    """Warm result cache: repeated identical queries are O(key lookup)."""
    db = hr_database(random.Random(4), employees=size, students=size // 2,
                     overlap=size // 4)
    plan = Project((0,), Difference(Scan("employees"), Scan("students")))
    db.run(plan)  # warm the cache
    result = benchmark(lambda: db.run(plan))
    assert result.value == db.run_reference(plan).value


@pytest.mark.parametrize("size", [200, 800])
def test_hash_join_build_probe(benchmark, size):
    """Multi-column hash join over random binary relations."""
    rng = random.Random(9)
    db = random_database(rng, ("a", "b"), arity=2, domain_size=size // 4,
                         max_rows=size)
    plan = Join(((0, 0), (1, 1)), Scan("a"), Scan("b"))
    result = benchmark(lambda: execute_compiled(plan, db))
    assert result.value == execute_reference(plan, db).value


def test_random_plan_equivalence_throughput(benchmark):
    """Random-plan equivalence checks per second (the property-test
    workload; regressions here slow the whole verification suite)."""
    rng = random.Random(42)
    pairs = [
        (
            random_plan(rng, ("r", "s"), depth=3),
            random_database(rng, ("r", "s"), arity=2, domain_size=5,
                            max_rows=10),
        )
        for _ in range(10)
    ]

    def check():
        for plan, db in pairs:
            assert (
                execute_compiled(plan, db).value
                == execute_reference(plan, db).value
            )

    benchmark(check)


@pytest.mark.parametrize("size", [100, 400])
def test_rewrite_plus_execute_beats_original(benchmark, size):
    """End-to-end: optimize then execute; asserts the work reduction."""
    db = hr_database(random.Random(5), employees=size, students=size // 2,
                     overlap=size // 4)
    plan = Project((0,), Difference(Scan("employees"), Scan("students")))
    rewriter = Rewriter(db.catalog)
    optimized = rewriter.optimize(plan)

    def run_both():
        return db.run(plan).work, db.run(optimized).work

    before, after = benchmark(run_both)
    assert after <= before
