"""A deterministic work gate on the paper's hot path.

Set relatedness over ``Mapping``, ``IdentityRel`` and product inners is
decided on tuples of leaf values: the rel mode walks an index of the
other side, looking up the leaves' image and preimage sets, and a strong
check with cold maximal-set memos compares leaf tuples instead of
enumerating ``Tup`` images.  If either stops being taken the tables stay
byte-identical and only the time grows, so this test counts the calls
four experiments make to the inner relations and fails when any count
rises above its recorded value:

* ``Mapping.holds`` and ``ProductRel.holds``, the pairwise loop;
* ``ProductRel.images`` and ``ProductRel.preimages``, the enumeration
  that builds maximal sets (the memoized path and ``strong_repair``);
* on E-INEXPR, whose eight-leaf products the walk decides,
  ``Mapping.image_set`` and ``Mapping.preimage_set``, the walk's lookups.

The counts do not depend on the hash seed or on which experiments ran
before in the same process.
"""

import pytest

from repro.experiments.registry import run
from repro.mappings.extensions import ProductRel
from repro.mappings.mapping import Mapping

#: Calls per experiment, at most.
BUDGETS = {
    "E-2.10": {
        "Mapping.holds": 0,
        "ProductRel.holds": 0,
        "ProductRel.images": 4_059,
        "ProductRel.preimages": 3_683,
    },
    "E-3.3": {
        "Mapping.holds": 0,
        "ProductRel.holds": 0,
        "ProductRel.images": 2_350,
        "ProductRel.preimages": 2_689,
    },
    "E-3.6": {
        "Mapping.holds": 0,
        "ProductRel.holds": 480,
        "ProductRel.images": 3_602,
        "ProductRel.preimages": 3_918,
    },
    "E-INEXPR": {
        "Mapping.holds": 0,
        "ProductRel.holds": 0,
        "ProductRel.images": 779,
        "ProductRel.preimages": 918,
        "Mapping.image_set": 21_100,
        "Mapping.preimage_set": 117_059,
    },
}

CLASSES = {"Mapping": Mapping, "ProductRel": ProductRel}


@pytest.mark.parametrize("exp_id", sorted(BUDGETS))
def test_holds_calls_within_budget(monkeypatch, exp_id):
    counts = dict.fromkeys(BUDGETS[exp_id], 0)
    for name in counts:
        cls_name, method = name.split(".")
        cls = CLASSES[cls_name]
        original = cls.__dict__[method]

        def counted(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cls, method, counted)
    assert run(exp_id).matches_paper
    for name, budget in BUDGETS[exp_id].items():
        assert counts[name] <= budget, (exp_id, name, counts[name])
