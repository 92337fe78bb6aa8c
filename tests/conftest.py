"""Shared fixtures and helpers for the test suite.

The executor suites all need the same scaffolding: a trio of small
relations to run plans over, seeded random plan/database pairs for the
property loops, the seeded HR workload for ``Database``-level tests,
and the parity assertion that defines the engine's contract.  Each
used to carry its own copy; they live here once.

* :data:`NAMES` — the canonical relation trio ``("r", "s", "t")``.
* :func:`assert_equivalent` — plain function (import it): each result
  byte-matches the reference interpreter on value, work, and ledger.
* ``small_db`` — a live three-relation :class:`Database` with fixed
  contents, for insert-time physical-state tests.
* ``random_db(seed, ...)`` — factory fixture for a seeded random
  relation mapping over :data:`NAMES`.
* ``plan_pair(seed, ...)`` — factory fixture for a seeded
  ``(plan, db)`` pair drawn from the same distribution the executor
  property suites always used.
* ``hr_db(seed, ...)`` — factory fixture for the seeded HR workload
  ``Database``.
* ``compile_calls`` — the list of plans ``execute_compiled`` lowered
  (through ``compile_plan``) while the test ran.
* :func:`hr_plans` — plain function: seeded random plans over the HR
  relations (:data:`HR_NAMES`), one per seed; :func:`shuffled_draws`
  repeats plan indexes in a seeded order, for query streams.
"""

from __future__ import annotations

import random

import pytest

import repro.engine.exec.compile as compile_module
from repro.engine.database import Database
from repro.engine.workload import hr_database, random_database, random_plan
from repro.optimizer.plan import execute_reference

NAMES = ("r", "s", "t")
HR_NAMES = ("employees", "students", "contractors")


def assert_equivalent(plan, db, *results):
    """Every ``result`` matches the reference interpreter exactly:
    same ``CVSet`` value, same total work, same per-node ledger."""
    reference = execute_reference(plan, getattr(db, "relations", db))
    for result in results:
        assert result.value == reference.value
        assert result.work == reference.work
        assert result.per_node == reference.per_node


def hr_plans(seeds):
    """One seeded random plan over :data:`HR_NAMES` per seed."""
    for seed in seeds:
        rng = random.Random(seed)
        yield random_plan(rng, HR_NAMES, base_arity=3,
                          depth=rng.randint(1, 6))


def shuffled_draws(count, repeats, seed=0):
    """Each index below ``count`` ``repeats`` times, in a seeded order."""
    draws = [k for k in range(count) for _ in range(repeats)]
    random.Random(seed).shuffle(draws)
    return draws


@pytest.fixture
def small_db():
    """A small live ``Database`` over ``r``/``s``/``t`` with fixed
    contents."""
    db = Database()
    db.create("r", 2)
    db.create("s", 2)
    db.create("t", 2)
    db.insert("r", [(1, 2), (2, 3), (4, 5)])
    db.insert("s", [(2, 3), (6, 7)])
    db.insert("t", [(1, 1)])
    return db


@pytest.fixture
def random_db():
    """Factory: ``random_db(seed, names=NAMES, **kwargs)`` returns a
    seeded random relation mapping (defaults match the property
    suites: arity 2, domain 5, up to 12 rows)."""

    def make(seed, names=NAMES, **kwargs):
        kwargs.setdefault("arity", 2)
        kwargs.setdefault("domain_size", 5)
        kwargs.setdefault("max_rows", 12)
        return random_database(random.Random(seed), names, **kwargs)

    return make


@pytest.fixture
def plan_pair():
    """Factory: ``plan_pair(seed, names=NAMES, depth=None, **kwargs)``
    returns a seeded ``(plan, db)`` pair.  One seed, one rng: the
    database draw advances the same stream the plan is drawn from, so
    a seed reproduces the whole pair."""

    def make(seed, names=NAMES, depth=None, **kwargs):
        rng = random.Random(seed)
        kwargs.setdefault("arity", 2)
        kwargs.setdefault("domain_size", 5)
        kwargs.setdefault("max_rows", rng.randint(0, 12))
        db = random_database(rng, names, **kwargs)
        plan = random_plan(
            rng, names, depth=depth if depth is not None else rng.randint(1, 4)
        )
        return plan, db

    return make


@pytest.fixture
def hr_db():
    """Factory: ``hr_db(seed=11, employees=40, students=25,
    overlap=10)`` builds the seeded HR workload ``Database``."""

    def make(seed=11, employees=40, students=25, overlap=10, **kwargs):
        return hr_database(
            random.Random(seed), employees=employees, students=students,
            overlap=overlap, **kwargs,
        )

    return make


@pytest.fixture
def compile_calls(monkeypatch):
    """Record every plan ``execute_compiled`` lowers: the returned list
    grows by one plan per ``compile_plan`` call."""
    calls = []
    lower = compile_module.compile_plan

    def counting(plan, *args, **kwargs):
        calls.append(plan)
        return lower(plan, *args, **kwargs)

    monkeypatch.setattr(compile_module, "compile_plan", counting)
    return calls
