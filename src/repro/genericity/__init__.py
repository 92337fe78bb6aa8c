"""Genericity: invariance under mapping classes (paper Sections 2-3)."""

from .catalog import PAPER_TABLE, CatalogEntry, expected_cell
from .static_analysis import ClassBound, Profile, analyze_plan
from .exhaustive import ExhaustiveReport, all_values_of, exhaustive_check
from .classify import ClassificationRow, Verdict, classification_table, classify
from .hierarchy import (
    STANDARD_LATTICE,
    GenericitySpec,
    constrain_to_unary_predicate,
    force_preserve_constant,
    spec_leq,
)
from .invariance import (
    InvarianceReport,
    Witness,
    check_invariance,
    check_pair,
    instantiate_at,
    related_pair,
    sample_image,
    strong_repair,
)
from .witnesses import (
    SearchResult,
    find_counterexample,
    find_counterexamples,
    input_type_groups,
    verify_witness,
)

__all__ = [name for name in dir() if not name.startswith("_")]
