"""Counterexample search for negative genericity claims.

Several of the paper's results are *negative*: a query is **not**
generic w.r.t. some class (Lemma 2.12, Prop 3.4, Prop 3.5, the Q4/Q5
examples).  Such claims are established exactly by exhibiting a witness.
:func:`find_counterexamples` searches randomized families and inputs of
growing size; the experiments assert that the search succeeds for the
paper's negative claims and fails (within budget) for the positive ones.

The related inputs ``H^x(R1, R2)`` of Definition 2.9 depend on the
mapping class, the mode and the input type, never on the query.  So the
search is batch-first: queries that share an input type share one
trial stream, and :func:`find_counterexample` is the one-query case.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from ..algebra.query import Query
from ..mappings.extensions import ExtensionMode, REL
from ..mappings.mapping import Rel
from ..types.ast import INT, BaseType, Type
from ..types.values import Value
from ..mappings.generators import random_value
from .hierarchy import GenericitySpec
from .invariance import Witness, check_pair, instantiate_at, related_pair

__all__ = [
    "SearchResult",
    "find_counterexample",
    "find_counterexamples",
    "input_type_groups",
    "verify_witness",
]


@dataclass
class SearchResult:
    """Outcome of a counterexample search."""

    query_name: str
    spec: GenericitySpec
    mode: ExtensionMode
    witness: Optional[Witness]
    trials: int
    pairs_checked: int

    @property
    def found(self) -> bool:
        return self.witness is not None

    def __repr__(self) -> str:
        status = "found" if self.found else "none"
        return (
            f"SearchResult({self.query_name} vs {self.spec.name}/{self.mode}:"
            f" {status} after {self.trials} trials)"
        )


def input_type_groups(
    queries: Sequence[Query],
    base: BaseType = INT,
    input_type: Optional[Type] = None,
) -> dict[Type, list[int]]:
    """Positions of ``queries`` keyed by the input type their search
    runs at: ``input_type`` if given, else the query's input type
    instantiated at ``base``.  Groups appear in first-query order."""
    groups: dict[Type, list[int]] = {}
    for i, query in enumerate(queries):
        in_type = input_type or instantiate_at(query.input_type, base)
        groups.setdefault(in_type, []).append(i)
    return groups


def find_counterexamples(
    queries: Sequence[Query],
    spec: GenericitySpec,
    mode: ExtensionMode = REL,
    base: BaseType = INT,
    trials: int = 200,
    inputs_per_trial: int = 4,
    domain_size: int = 4,
    seed: int = 0,
    signature=None,
    input_type: Optional[Type] = None,
    output_type: Optional[Type] = None,
    fixed_inputs: Optional[Sequence[Value]] = None,
) -> list[SearchResult]:
    """Search each of ``queries`` for an invariance violation against
    ``spec``; one :class:`SearchResult` per query, in query order.

    The queries are split by :func:`input_type_groups`, and each group
    draws one stream from a fresh ``random.Random(seed)``.  Each trial
    draws a family from the spec's mapping class and
    ``inputs_per_trial`` random inputs of the group's input type (or
    takes ``fixed_inputs``).  It then builds one validated related pair
    per input, lazily and in input order
    (:func:`~repro.genericity.invariance.related_pair`).  Every query of
    the group that is still searching is checked against each pair
    (:func:`~repro.genericity.invariance.check_pair`) and stops at its
    first witness; the group stops when no query is left.  Queries never
    draw from the rng, so every result (``found``, ``trials``,
    ``pairs_checked`` and the witness) equals the search of that query
    alone.

    Pairs repeat within a trial, since strong repair closes several
    inputs into one pair.  A repeat counts in ``pairs_checked`` for
    every query still searching but is not checked again: each of them
    already passed it in this trial against the same output extension,
    and queries and ``holds`` are pure.  The set of checked pairs lives
    for one trial, since the next trial's family may judge the pair
    anew.
    """
    out_types = [
        output_type or instantiate_at(q.output_type, base) for q in queries
    ]
    results = [SearchResult(q.name, spec, mode, None, trials, 0) for q in queries]
    groups = input_type_groups(queries, base, input_type)
    for in_type, searching in groups.items():
        rng = random.Random(seed)
        for trial in range(trials):
            if not searching:
                break
            family = spec.generate_family(
                rng,
                base_types=(base,),
                domain_size=domain_size,
                signature=signature,
            )
            if fixed_inputs is not None:
                inputs = fixed_inputs
            else:
                domain = list(family[base.name].source_domain)
                inputs = [
                    random_value(rng, in_type, {base.name: domain})
                    for _ in range(inputs_per_trial)
                ]
            in_rel = family.extend(in_type, mode)
            out_rels: dict[Type, Rel] = {}
            checked: set[tuple[Value, Value]] = set()
            for value in inputs:
                pair = related_pair(in_rel, value, mode, rng)
                if pair is None:
                    continue
                for i in searching:
                    results[i].pairs_checked += 1
                if pair in checked:
                    continue
                checked.add(pair)
                for i in searching:
                    out_type = out_types[i]
                    if out_type not in out_rels:
                        out_rels[out_type] = family.extend(out_type, mode)
                    result = results[i]
                    result.witness = check_pair(
                        queries[i], pair, out_rels[out_type], family, mode
                    )
                    if result.witness is not None:
                        result.trials = trial + 1
                searching = [i for i in searching if not results[i].found]
                if not searching:
                    break
    return results


def find_counterexample(
    query: Query,
    spec: GenericitySpec,
    mode: ExtensionMode = REL,
    base: BaseType = INT,
    trials: int = 200,
    inputs_per_trial: int = 4,
    domain_size: int = 4,
    seed: int = 0,
    signature=None,
    input_type: Optional[Type] = None,
    output_type: Optional[Type] = None,
    fixed_inputs: Optional[Sequence[Value]] = None,
) -> SearchResult:
    """Search for an invariance violation of ``query`` against ``spec``:
    the one-query case of :func:`find_counterexamples`."""
    (result,) = find_counterexamples(
        [query],
        spec,
        mode,
        base=base,
        trials=trials,
        inputs_per_trial=inputs_per_trial,
        domain_size=domain_size,
        seed=seed,
        signature=signature,
        input_type=input_type,
        output_type=output_type,
        fixed_inputs=fixed_inputs,
    )
    return result


def verify_witness(
    query: Query,
    witness: Witness,
    input_type: Type,
    output_type: Type,
) -> bool:
    """Independently re-validate a witness: inputs related, outputs not.

    Guards the experiments against bugs in the generation path — a
    claimed counterexample must survive a from-scratch check.
    """
    in_rel = witness.family.extend(input_type, witness.mode)
    out_rel = witness.family.extend(output_type, witness.mode)
    r1, r2 = witness.input_pair
    if not in_rel.holds(r1, r2):
        return False
    return not out_rel.holds(query.fn(r1), query.fn(r2))
