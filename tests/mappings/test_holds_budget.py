"""A deterministic work gate on the paper's hot path.

Set relatedness is decided from images and preimages when that is
cheaper than the pairwise ``holds`` loop (``extensions._images_cheaper``).
If that path stops being taken the tables stay byte-identical and only
the time grows, so this test counts the ``holds`` calls two experiments
make and fails when either count rises above its recorded value.  The
counts do not depend on the hash seed or on which experiments ran
before in the same process.
"""

import pytest

from repro.experiments.registry import run
from repro.mappings.extensions import ProductRel
from repro.mappings.mapping import Mapping

#: ``holds`` calls per experiment, at most.
BUDGETS = {
    "E-2.10": {"Mapping": 17_508, "ProductRel": 9_780},
    "E-3.6": {"Mapping": 4_512, "ProductRel": 3_647},
}


@pytest.mark.parametrize("exp_id", sorted(BUDGETS))
def test_holds_calls_within_budget(monkeypatch, exp_id):
    counts = dict.fromkeys(BUDGETS[exp_id], 0)
    for cls in (Mapping, ProductRel):
        original = cls.__dict__["holds"]

        def counted(self, x, y, _original=original, _name=cls.__name__):
            counts[_name] += 1
            return _original(self, x, y)

        monkeypatch.setattr(cls, "holds", counted)
    assert run(exp_id).matches_paper
    for name, budget in BUDGETS[exp_id].items():
        assert counts[name] <= budget, (exp_id, name, counts[name])
