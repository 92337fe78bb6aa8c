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

The counts do not depend on the hash seed.
"""

import pytest

from repro.experiments.registry import run
from repro.genericity import invariance, witnesses
from repro.genericity.hierarchy import GenericitySpec

#: Calls on E-TABLE1, at most.
BUDGETS = {"related_pair": 13_415, "generate_family": 3_355}

#: ``check_pair`` calls of the search per experiment, at most.
CHECK_BUDGETS = {"E-3.3": 1_197, "E-INEXPR": 1_458, "E-STATIC": 2_808}


def counted(fn, counts, name):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def test_table1_draws_one_stream_per_input_type(monkeypatch):
    counts = dict.fromkeys(BUDGETS, 0)
    pair = counted(invariance.related_pair, counts, "related_pair")
    for module in (invariance, witnesses):
        monkeypatch.setattr(module, "related_pair", pair)
    monkeypatch.setattr(
        GenericitySpec,
        "generate_family",
        counted(GenericitySpec.generate_family, counts, "generate_family"),
    )
    assert run("E-TABLE1").matches_paper
    for name, budget in BUDGETS.items():
        assert counts[name] <= budget, (name, counts[name])


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
