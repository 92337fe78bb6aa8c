"""Tests for nested-relational operations."""

from repro.algebra.nested import (
    flatten,
    nest_parity,
    powerset,
    singleton,
    unnest,
)
from repro.types.values import CVSet, cvset, tup


class TestPowerset:
    def test_counts(self):
        out = powerset().fn(cvset(1, 2))
        assert len(out) == 4
        assert cvset() in out
        assert cvset(1, 2) in out

    def test_empty(self):
        assert powerset().fn(cvset()) == cvset(cvset())


class TestNestUnnest:
    def test_unnest_tuple_elements(self):
        nested = cvset(tup("a", cvset(tup(1), tup(2))), tup("b", cvset(tup(3))))
        flat = unnest(1, 2).fn(nested)
        assert flat == cvset(tup("a", 1), tup("a", 2), tup("b", 3))

    def test_unnest_atom_elements(self):
        r = cvset(tup("a", cvset(1, 2)))
        out = unnest(1, 2).fn(r)
        assert out == cvset(tup("a", 1), tup("a", 2))


class TestMonadStructure:
    def test_singleton(self):
        assert singleton().fn(5) == cvset(5)

    def test_flatten(self):
        assert flatten().fn(cvset(cvset(1), cvset(2, 3))) == cvset(1, 2, 3)

    def test_monad_laws_on_samples(self):
        eta, mu = singleton(), flatten()
        s = cvset(1, 2)
        # mu . eta = id on sets
        assert mu.fn(eta.fn(s)) == s
        # mu . map(eta) = id
        mapped = CVSet(eta.fn(x) for x in s)
        assert mu.fn(mapped) == s


class TestNestParity:
    def test_depth_parity(self):
        np = nest_parity()
        assert np.fn(cvset(1)) is False        # depth 1
        assert np.fn(cvset(cvset(1))) is True  # depth 2
        assert np.fn(cvset(cvset(cvset(1)))) is False

    def test_empty_set_has_depth_one(self):
        assert nest_parity().fn(cvset()) is False

    def test_structural_only(self):
        # Same structure, different atoms: same answer.
        np = nest_parity()
        assert np.fn(cvset(cvset("a"))) == np.fn(cvset(cvset(99)))


class TestNestedTypes:
    def test_powerset_type(self):
        q = powerset()
        assert str(q.input_type) == "{X}"
        assert str(q.output_type) == "{{X}}"

    def test_unnest_moves_the_inner_variable_last(self):
        q = unnest(0, 2)
        assert str(q.input_type) == "{{Y} * X2}"
        assert str(q.output_type) == "{X2 * Y}"

    def test_monad_types(self):
        assert str(singleton().output_type) == "{X}"
        assert str(flatten().input_type) == "{{X}}"


class TestNestedEdgeCases:
    def test_powerset_has_two_to_the_n_members(self):
        out = powerset().fn(cvset(1, 2, 3))
        assert len(out) == 8
        assert all(s.issubset(cvset(1, 2, 3)) for s in out)

    def test_unnest_drops_rows_with_an_empty_set(self):
        r = cvset(tup(CVSet(), "a"), tup(cvset(1), "b"))
        assert unnest(0, 2).fn(r) == cvset(tup("b", 1))

    def test_flatten_of_empty_sets(self):
        assert flatten().fn(cvset()) == cvset()
        assert flatten().fn(cvset(cvset())) == cvset()
