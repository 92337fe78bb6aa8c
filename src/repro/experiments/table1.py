"""Experiment E-TABLE1: the full classification table, checked.

Sweeps every operation of the curated catalog
(:mod:`repro.genericity.catalog`) over the whole (mapping class,
extension mode) lattice and compares the measured verdict in each cell
with the paper's expectation.  This is the reproduction's master table —
the closest analogue of a systems paper's "Table 1".
"""

from __future__ import annotations

from ..genericity.catalog import PAPER_TABLE, expected_cell
from ..genericity.classify import classification_table
from ..mappings.extensions import REL, STRONG
from .report import ExperimentResult

__all__ = ["table1"]


def table1(seed: int = 0, trials: int = 50) -> ExperimentResult:
    """Classify the full catalog and check every cell."""
    result = ExperimentResult(
        "E-TABLE1",
        "Master classification table (Section 3 + full-paper nested ops)",
        "every operation lands in exactly the genericity cells the paper "
        "(or, for nested ops, the framework's own derivation) predicts",
        ("operation", "source", "measured profile", "cells checked",
         "mismatches"),
    )
    rows = classification_table(
        [entry.factory() for entry in PAPER_TABLE], trials=trials, seed=seed
    )
    for entry, row in zip(PAPER_TABLE, rows):
        mismatches = 0
        checked = 0
        profile_bits = []
        for verdict in row.verdicts:
            expected = expected_cell(entry, verdict.spec.name, verdict.mode)
            if expected is None:
                continue
            checked += 1
            if verdict.generic != expected:
                mismatches += 1
        for mode in (REL, STRONG):
            tightest = row.tightest(mode)
            profile_bits.append(
                f"{mode}:{tightest.name if tightest else '-'}"
            )
        result.add(
            entry.name,
            entry.paper_source,
            " ".join(profile_bits),
            checked,
            mismatches,
        )
        result.require(
            mismatches == 0,
            f"{entry.name}: {mismatches} cells diverge",
        )
    return result
