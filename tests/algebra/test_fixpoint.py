"""Tests for the fixpoint operations."""

import pytest

from repro.algebra.fixpoint import (
    inflationary_fixpoint,
    transitive_closure,
)
from repro.algebra.operators import self_compose
from repro.algebra.query import Query
from repro.types.ast import INT, set_of
from repro.types.values import CVSet, cvset, tup


class TestTransitiveClosure:
    def test_chain(self):
        r = cvset(tup(1, 2), tup(2, 3), tup(3, 4))
        out = transitive_closure().fn(r)
        assert tup(1, 4) in out
        assert tup(1, 3) in out
        assert r.issubset(out)
        assert len(out) == 6

    def test_cycle(self):
        r = cvset(tup(1, 2), tup(2, 1))
        out = transitive_closure().fn(r)
        assert tup(1, 1) in out
        assert tup(2, 2) in out

    def test_empty(self):
        assert transitive_closure().fn(CVSet()) == CVSet()

    def test_already_closed_is_fixpoint(self):
        r = cvset(tup(1, 2), tup(2, 3), tup(1, 3))
        out = transitive_closure().fn(r)
        assert out == r


class TestInflationaryFixpoint:
    def test_monotone_growth_stops(self):
        # Body adds successors of existing atoms up to a ceiling.
        def grow(s):
            return CVSet(x + 1 for x in s if x < 5)

        body = Query("grow", grow, set_of(INT), set_of(INT))
        q = inflationary_fixpoint(body)
        assert q.fn(cvset(1)) == cvset(1, 2, 3, 4, 5)

    def test_name_and_metadata(self):
        q = inflationary_fixpoint(self_compose())
        assert q.name.startswith("fix(")
        assert q.uses_equality

    def test_explicit_name_and_types(self):
        body = Query("grow", lambda s: s, set_of(INT), set_of(INT))
        q = inflationary_fixpoint(body, name="stay")
        assert q.name == "stay"
        assert q.input_type == q.output_type == set_of(INT)
        assert not q.uses_equality

    def test_unbounded_growth_raises(self, monkeypatch):
        import repro.algebra.fixpoint as fixpoint

        monkeypatch.setattr(fixpoint, "_MAX_ITERATIONS", 5)
        body = Query("succ", lambda s: CVSet(x + 1 for x in s),
                     set_of(INT), set_of(INT))
        with pytest.raises(RuntimeError, match="did not converge"):
            inflationary_fixpoint(body).fn(cvset(0))


class TestTransitiveClosureShape:
    def test_metadata(self):
        q = transitive_closure()
        assert q.name == "tc"
        assert q.uses_equality
        assert "transitive closure" in q.notes

    def test_components_stay_apart(self):
        r = cvset(tup(1, 2), tup(3, 4))
        assert transitive_closure().fn(r) == r
