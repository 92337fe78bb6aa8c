"""Genericity classification: find the tightest class for a query.

"Given a query, the interesting question is not whether it is generic
but rather what is the tightest genericity class for it" (Section 1).
:func:`classify` sweeps a query over the standard lattice x both
extension modes, recording for each cell either a verified
counterexample (NOT generic there) or the number of randomized checks
survived (empirically generic).  The result is the classification table
— the reproduction's stand-in for the paper's Section 3 narrative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..algebra.query import Query
from ..mappings.extensions import REL, STRONG, ExtensionMode
from ..types.ast import INT, BaseType, Type
from .hierarchy import STANDARD_LATTICE, GenericitySpec
from .invariance import instantiate_at
from .witnesses import (
    SearchResult,
    find_counterexamples,
    input_type_groups,
    verify_witness,
)

__all__ = ["Verdict", "ClassificationRow", "classify", "classification_table"]


@dataclass
class Verdict:
    """Outcome for one (spec, mode) cell."""

    spec: GenericitySpec
    mode: ExtensionMode
    generic: bool
    pairs_checked: int
    witness_verified: bool = False

    def label(self) -> str:
        if self.generic:
            return f"generic ({self.pairs_checked} checks)"
        mark = "verified" if self.witness_verified else "UNVERIFIED"
        return f"NOT generic (witness {mark})"


@dataclass
class ClassificationRow:
    """The full classification of one query."""

    query_name: str
    verdicts: list[Verdict]

    def tightest(self, mode: ExtensionMode) -> Optional[GenericitySpec]:
        """The largest mapping class the query is (empirically) generic
        for in the given mode — its tightest genericity classification.

        The lattice is ordered largest class first, so the first generic
        cell wins."""
        for verdict in self.verdicts:
            if verdict.mode == mode and verdict.generic:
                return verdict.spec
        return None

    def cell(self, spec_name: str, mode: ExtensionMode) -> Verdict:
        for verdict in self.verdicts:
            if verdict.spec.name == spec_name and verdict.mode == mode:
                return verdict
        raise KeyError((spec_name, mode))


def classify(
    query: Query,
    lattice: Sequence[GenericitySpec] = STANDARD_LATTICE,
    modes: Sequence[ExtensionMode] = (REL, STRONG),
    base: BaseType = INT,
    trials: int = 60,
    seed: int = 0,
    signature=None,
) -> ClassificationRow:
    """Classify ``query`` against every (spec, mode) cell of the lattice:
    the one-query case of :func:`classification_table`."""
    return _classify([query], lattice, modes, base, trials, seed, signature)[0]


def classification_table(
    queries: Sequence[Query],
    lattice: Sequence[GenericitySpec] = STANDARD_LATTICE,
    modes: Sequence[ExtensionMode] = (REL, STRONG),
    trials: int = 40,
    seed: int = 0,
    signature=None,
) -> list[ClassificationRow]:
    """Classify a catalog of queries; the Section 3 table generator.

    Each cell searches all queries of one input type on one trial stream
    (:func:`~repro.genericity.witnesses.find_counterexamples`), so row
    ``i`` equals ``classify(queries[i])`` verdict by verdict.  The table
    sweeps the whole lattice for one input-type group before it starts
    the next.  Rows come back in query order.
    """
    return _classify(queries, lattice, modes, INT, trials, seed, signature)


def _classify(
    queries: Sequence[Query],
    lattice: Sequence[GenericitySpec],
    modes: Sequence[ExtensionMode],
    base: BaseType,
    trials: int,
    seed: int,
    signature,
) -> list[ClassificationRow]:
    rows: list[ClassificationRow] = [None] * len(queries)
    for in_type, members in input_type_groups(queries, base).items():
        group = [queries[i] for i in members]
        out_types = [instantiate_at(q.output_type, base) for q in group]
        verdicts: list[list[Verdict]] = [[] for _ in group]
        for spec in lattice:
            for mode in modes:
                results = find_counterexamples(
                    group,
                    spec,
                    mode,
                    base=base,
                    trials=trials,
                    seed=seed,
                    signature=signature,
                    input_type=in_type,
                )
                for query, out_type, result, row in zip(
                    group, out_types, results, verdicts
                ):
                    row.append(_verdict(query, result, in_type, out_type))
        for i, query, row in zip(members, group, verdicts):
            rows[i] = ClassificationRow(query.name, row)
    return rows


def _verdict(
    query: Query, result: SearchResult, in_type: Type, out_type: Type
) -> Verdict:
    if not result.found:
        return Verdict(result.spec, result.mode, True, result.pairs_checked)
    verified = verify_witness(query, result.witness, in_type, out_type)
    return Verdict(result.spec, result.mode, False, result.pairs_checked, verified)
