"""Tests for counterexample search."""

import dataclasses
import random

import pytest

from repro.algebra.operators import (
    eq_adom,
    even_query,
    hat_select_eq,
    projection,
    select_eq,
    self_cross,
)
from repro.algebra.query import Query
from repro.genericity import witnesses
from repro.genericity.hierarchy import GenericitySpec
from repro.genericity.invariance import check_pair, instantiate_at, related_pair
from repro.genericity.witnesses import (
    SearchResult,
    find_counterexample,
    find_counterexamples,
    input_type_groups,
    verify_witness,
)
from repro.mappings.extensions import REL, STRONG
from repro.mappings.families import MappingFamily
from repro.mappings.generators import random_value
from repro.mappings.mapping import Mapping
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
        batch = find_counterexamples(queries, *args, **kwargs)
        alone = [find_counterexamples([q], *args, **kwargs)[0] for q in queries]
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
    def test_queries_sharing_a_name_stay_apart(self, mode):
        # Same name, different functions: anything keyed by the name
        # would hand sigma's outputs to pi (or the reverse).
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


def search_without_dedupe(queries, spec, mode, trials, inputs_per_trial=4,
                          domain_size=4, seed=0, fixed_inputs=None):
    """The search loop that checks every related pair, repeats included:
    the oracle of the per-trial dedupe in ``find_counterexamples``."""
    results = [SearchResult(q.name, spec, mode, None, trials, 0)
               for q in queries]
    for in_type, searching in input_type_groups(queries).items():
        rng = random.Random(seed)
        for trial in range(trials):
            family = spec.generate_family(rng, domain_size=domain_size)
            domain = {"int": list(family["int"].source_domain)}
            inputs = fixed_inputs if fixed_inputs is not None else [
                random_value(rng, in_type, domain)
                for _ in range(inputs_per_trial)
            ]
            in_rel = family.extend(in_type, mode)
            for value in inputs:
                pair = related_pair(in_rel, value, mode, rng)
                if pair is None:
                    continue
                for i in searching:
                    out_type = instantiate_at(queries[i].output_type, INT)
                    out_rel = family.extend(out_type, mode)
                    results[i].pairs_checked += 1
                    results[i].witness = check_pair(
                        queries[i], pair, out_rel, family, mode
                    )
                    if results[i].found:
                        results[i].trials = trial + 1
                searching = [i for i in searching if not results[i].found]
            if not searching:
                break
    return results


@dataclasses.dataclass(frozen=True)
class ScriptedSpec(GenericitySpec):
    """Hands out ``families`` in turn, one per trial, whatever the rng."""

    families: tuple = ()
    drawn: list = dataclasses.field(default_factory=list)

    def generate_family(self, rng, **kwargs):
        family = self.families[len(self.drawn) % len(self.families)]
        self.drawn.append(family)
        return family


def int_family(pairs):
    return MappingFamily({"int": Mapping(pairs, INT, INT)})


class TestPairDedupe:
    """A related pair that repeats within a trial is counted for every
    query still searching but checked only once; the loop that checks
    every repeat is the oracle."""

    MIXED = [projection((0,), 2), select_eq(0, 1, 2), self_cross(),
             hat_select_eq(0, 1, 2)]

    def assert_matches_oracle(self, monkeypatch, queries, spec, mode,
                              **kwargs):
        """Compare the search with the oracle; return the search's
        ``check_pair`` calls and the oracle's."""
        calls = []

        def counted(*args):
            calls.append(args)
            return check_pair(*args)

        monkeypatch.setattr(witnesses, "check_pair", counted)
        results = find_counterexamples(queries, spec, mode, **kwargs)
        expected = search_without_dedupe(queries, spec, mode, **kwargs)
        assert [_outcome(r) for r in results] == \
            [_outcome(r) for r in expected]
        # The oracle makes one check per pair it counts.
        return len(calls), sum(r.pairs_checked for r in expected)

    @pytest.mark.parametrize("spec", [ALL, INJECTIVE], ids=lambda s: s.name)
    def test_strong_mode_over_pair_sets(self, monkeypatch, spec):
        # Over {X x X} several random inputs of one trial close to the
        # same strong set.
        checks, oracle = self.assert_matches_oracle(
            monkeypatch, self.MIXED, spec, STRONG, trials=30
        )
        assert checks < oracle

    @pytest.mark.parametrize("spec", [ALL, INJECTIVE], ids=lambda s: s.name)
    def test_rel_mode(self, monkeypatch, spec):
        checks, oracle = self.assert_matches_oracle(
            monkeypatch, self.MIXED, spec, REL, trials=30, seed=3
        )
        assert checks < oracle

    @pytest.mark.parametrize("mode", [REL, STRONG])
    def test_duplicate_fixed_inputs(self, monkeypatch, mode):
        # sigma stops at its witness; the repeats after it in the same
        # trial count only for the queries still searching.
        fixed = [cvset(tup(0, 0)), cvset(), cvset(tup(0, 0)), cvset()]
        checks, oracle = self.assert_matches_oracle(
            monkeypatch, self.MIXED, ALL, mode, trials=20,
            fixed_inputs=fixed,
        )
        assert checks < oracle

    @pytest.mark.parametrize("mode", [REL, STRONG])
    def test_queries_sharing_a_name(self, monkeypatch, mode):
        queries = [projection((0, 1), 2),
                   _twin(select_eq(0, 1, 2), "pi[1,2]")]
        checks, oracle = self.assert_matches_oracle(
            monkeypatch, queries, ALL, mode, trials=40
        )
        assert checks < oracle

    def test_a_pair_is_checked_again_in_the_next_trial(self):
        # Both families relate 0 to 0, but only the first preserves the
        # constant 1: the pair passes in trial 1 and is trial 2's witness.
        one = Query("one", lambda _: 1, INT, INT)
        spec = ScriptedSpec("scripted", families=(
            int_family({(0, 0), (1, 1)}), int_family({(0, 0), (1, 2)}),
        ))
        result = find_counterexample(one, spec, REL, trials=2,
                                     fixed_inputs=[0, 0])
        assert _outcome(result) == ("one", True, 2, 3, ((0, 0), (1, 1)))
