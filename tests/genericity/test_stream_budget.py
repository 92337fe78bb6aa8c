"""Deterministic gates on the counterexample search's work.

The related inputs of Definition 2.9 depend on the mapping class, the
mode and the input type, never on the query.  So ``classification_table``
draws one trial stream per (input type, lattice cell) and checks every
query of that input type against it.  And whether a query's outputs are
related depends on the pair, the query and the trial's family, not on
the input the pair was built from, so the search checks each distinct
related pair once per trial.  If either stopped, every verdict and
table would stay byte-identical and only the time would grow.  These
tests count what the search builds and checks, and fail when a count
rises above its recorded value:

* on E-TABLE1, ``related_pair`` (one validated related input pair) and
  ``GenericitySpec.generate_family`` (one trial's mapping family).  One
  stream per query makes 29,797 and 7,473 of them;
* on E-3.3, E-STATIC and E-INEXPR, ``check_pair`` (one query applied to
  one related pair).  Checking every repeat makes 1,779, 3,252 and
  2,184 of them.

E-TABLE1's ``check_pair`` count is pinned exactly.  The searches draw
from int domains, and sets, bags and lists hash with integer class
tags, so a set of sets iterates in the same order under every
``PYTHONHASHSEED`` and every count here is the same under all of them;
the last test runs a nested-set search under two seeds to keep it
that way.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.experiments.registry import run
from repro.genericity import invariance, witnesses
from repro.genericity.hierarchy import GenericitySpec

#: Calls on E-TABLE1, at most.
BUDGETS = {"related_pair": 13_415, "generate_family": 3_355}

#: ``check_pair`` calls on E-TABLE1, exactly.
TABLE1_CHECKS = 24_877

#: ``check_pair`` calls of the search per experiment, at most.
CHECK_BUDGETS = {"E-3.3": 1_197, "E-INEXPR": 1_458, "E-STATIC": 2_808}


def counted(fn, counts, name):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def test_table1_draws_one_stream_per_input_type(monkeypatch):
    counts = dict.fromkeys([*BUDGETS, "check_pair"], 0)
    pair = counted(invariance.related_pair, counts, "related_pair")
    for module in (invariance, witnesses):
        monkeypatch.setattr(module, "related_pair", pair)
    monkeypatch.setattr(
        GenericitySpec,
        "generate_family",
        counted(GenericitySpec.generate_family, counts, "generate_family"),
    )
    monkeypatch.setattr(
        witnesses,
        "check_pair",
        counted(witnesses.check_pair, counts, "check_pair"),
    )
    assert run("E-TABLE1").matches_paper
    for name, budget in BUDGETS.items():
        assert counts[name] <= budget, (name, counts[name])
    assert counts["check_pair"] == TABLE1_CHECKS


@pytest.mark.parametrize("exp_id", sorted(CHECK_BUDGETS))
def test_search_checks_each_pair_once_per_trial(monkeypatch, exp_id):
    counts = {"check_pair": 0}
    monkeypatch.setattr(
        witnesses,
        "check_pair",
        counted(witnesses.check_pair, counts, "check_pair"),
    )
    assert run(exp_id).matches_paper
    assert counts["check_pair"] <= CHECK_BUDGETS[exp_id], counts


_CLASSIFY_FLATTEN = """
from repro.algebra.nested import flatten
from repro.genericity.classify import classify
row = classify(flatten(), trials=50)
print([v.pairs_checked for v in row.verdicts])
"""


def test_nested_set_search_is_the_same_under_two_hash_seeds():
    # flatten's input is a set of sets, drawn element by element in
    # set iteration order, so a seed-dependent hash changes the draws.
    src = str(Path(repro.__file__).resolve().parents[1])

    def pairs_checked(seed):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        done = subprocess.run(
            [sys.executable, "-c", _CLASSIFY_FLATTEN],
            env=env, capture_output=True, text=True, check=True,
        )
        return done.stdout

    assert pairs_checked("0") == pairs_checked("1")
