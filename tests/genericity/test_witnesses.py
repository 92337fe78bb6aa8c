"""Tests for counterexample search."""

import dataclasses

import pytest

from repro.algebra.operators import (
    eq_adom,
    even_query,
    hat_select_eq,
    projection,
    select_eq,
    self_cross,
)
from repro.genericity.hierarchy import GenericitySpec
from repro.genericity.invariance import instantiate_at
from repro.genericity.witnesses import (
    find_counterexample,
    find_counterexamples,
    input_type_groups,
    verify_witness,
)
from repro.mappings.extensions import REL, STRONG
from repro.types.ast import INT, set_of
from repro.types.values import cvset, tup


ALL = GenericitySpec("all", "all")
INJECTIVE = GenericitySpec("injective", "injective")


class TestSearch:
    def test_finds_violation_for_selection(self):
        result = find_counterexample(select_eq(0, 1, 2), ALL, REL, trials=100)
        assert result.found
        assert result.trials <= 100

    def test_no_violation_for_projection(self):
        result = find_counterexample(projection((0,), 2), ALL, REL, trials=40)
        assert not result.found
        assert result.pairs_checked > 0

    def test_injective_class_protects_selection(self):
        result = find_counterexample(
            select_eq(0, 1, 2), INJECTIVE, REL, trials=60
        )
        assert not result.found

    def test_strong_mode_search(self):
        result = find_counterexample(select_eq(0, 1, 2), ALL, STRONG, trials=150)
        assert result.found

    def test_fixed_inputs_used(self):
        result = find_counterexample(
            select_eq(0, 1, 2), ALL, REL, trials=100,
            fixed_inputs=[cvset(tup(0, 0))],
        )
        assert result.found

    def test_repr(self):
        result = find_counterexample(projection((0,), 2), ALL, REL, trials=5)
        assert "pi[1]" in repr(result)


class TestVerifyWitness:
    def test_found_witnesses_verify(self):
        q = select_eq(0, 1, 2)
        result = find_counterexample(q, ALL, REL, trials=100)
        assert result.found
        in_type = instantiate_at(q.input_type, INT)
        out_type = instantiate_at(q.output_type, INT)
        assert verify_witness(q, result.witness, in_type, out_type)

    def test_bogus_witness_rejected(self):
        # A witness claiming a violation for an invariant query on
        # unrelated inputs must fail verification.
        q = projection((0,), 2)
        real = find_counterexample(select_eq(0, 1, 2), ALL, REL, trials=100)
        in_type = instantiate_at(q.input_type, INT)
        out_type = instantiate_at(q.output_type, INT)
        assert not verify_witness(q, real.witness, in_type, out_type)


def _outcome(result):
    witness = result.witness
    pairs = None if witness is None else (witness.input_pair, witness.output_pair)
    return (result.query_name, result.found, result.trials,
            result.pairs_checked, pairs)


def _twin(query, name):
    """``query`` under another query's name."""
    return dataclasses.replace(query, name=name)


class TestBatchSearch:
    """The one-query search is the oracle of the batch search: each
    query of a batch gets exactly the result it gets alone."""

    def assert_matches_alone(self, queries, *args, **kwargs):
        batch = find_counterexamples(
            queries, *args, fn_caches=[{} for _ in queries], **kwargs
        )
        alone = [
            find_counterexamples([q], *args, fn_caches=[{}], **kwargs)[0]
            for q in queries
        ]
        assert [_outcome(r) for r in batch] == [_outcome(r) for r in alone]
        return batch

    @pytest.mark.parametrize("mode", [REL, STRONG])
    def test_generic_and_early_exit_queries_mixed(self, mode):
        # pi[1] survives; sigma[1=2] and even stop early, mid-stream.
        queries = [projection((0,), 2), select_eq(0, 1, 2), even_query(),
                   eq_adom(), self_cross(), hat_select_eq(0, 1, 2)]
        batch = self.assert_matches_alone(queries, ALL, mode, trials=30)
        assert not batch[0].found and batch[1].found and batch[2].found
        assert batch[1].trials < 30

    @pytest.mark.parametrize("mode", [REL, STRONG])
    def test_queries_sharing_a_name_keep_their_own_memos(self, mode):
        # Same name, different functions: a shared memo would hand
        # sigma's outputs to pi (or the reverse) and change a verdict.
        queries = [projection((0, 1), 2),
                   _twin(select_eq(0, 1, 2), "pi[1,2]")]
        batch = self.assert_matches_alone(queries, ALL, mode, trials=40)
        assert not batch[0].found and batch[1].found

    @pytest.mark.parametrize("mode", [REL, STRONG])
    def test_fixed_inputs_and_other_sizes(self, mode):
        fixed = [cvset(tup(0, 0)), cvset(tup(1, 2), tup(2, 2)), cvset()]
        queries = [select_eq(0, 1, 2), projection((0,), 2),
                   hat_select_eq(0, 1, 2)]
        self.assert_matches_alone(
            queries, INJECTIVE, mode, trials=15, domain_size=3, seed=5,
            fixed_inputs=fixed,
        )
        self.assert_matches_alone(
            queries, ALL, mode, trials=12, domain_size=5, seed=2,
            fixed_inputs=fixed,
        )

    def test_explicit_input_type_makes_one_group(self):
        queries = [projection((0,), 2), even_query(), select_eq(0, 1, 2)]
        assert list(input_type_groups(queries).values()) == [[0, 2], [1]]
        pair_type = set_of(INT * INT)
        assert input_type_groups(queries, input_type=pair_type) == {
            pair_type: [0, 1, 2]
        }
        self.assert_matches_alone(
            [projection((0,), 2), select_eq(0, 1, 2)], ALL, STRONG,
            trials=20, input_type=pair_type,
        )

    def test_one_query_case_is_find_counterexample(self):
        q = select_eq(0, 1, 2)
        assert _outcome(find_counterexample(q, ALL, REL, trials=50)) == \
            _outcome(find_counterexamples([q], ALL, REL, trials=50)[0])
