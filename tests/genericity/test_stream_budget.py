"""A deterministic gate on trial-stream sharing.

The related inputs of Definition 2.9 depend on the mapping class, the
mode and the input type, never on the query.  So ``classification_table``
draws one trial stream per (input type, lattice cell) and checks every
query of that input type against it.  If the table fell back to one
stream per query, every verdict and table would stay byte-identical and
only the time would grow.  This test counts the two constructions a
stream is made of on E-TABLE1, and fails when either count rises above
its recorded value:

* ``related_pair``, one validated related input pair;
* ``GenericitySpec.generate_family``, one trial's mapping family.

One stream per query makes 29,797 and 7,473 of them.  The counts do not
depend on the hash seed.
"""

from repro.experiments.registry import run
from repro.genericity import invariance, witnesses
from repro.genericity.hierarchy import GenericitySpec

#: Calls on E-TABLE1, at most.
BUDGETS = {"related_pair": 13_415, "generate_family": 3_355}


def test_table1_draws_one_stream_per_input_type(monkeypatch):
    counts = dict.fromkeys(BUDGETS, 0)

    def counted(fn, name):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    pair = counted(invariance.related_pair, "related_pair")
    for module in (invariance, witnesses):
        monkeypatch.setattr(module, "related_pair", pair)
    monkeypatch.setattr(
        GenericitySpec,
        "generate_family",
        counted(GenericitySpec.generate_family, "generate_family"),
    )
    assert run("E-TABLE1").matches_paper
    for name, budget in BUDGETS.items():
        assert counts[name] <= budget, (name, counts[name])
