"""Relational and nested algebra substrate (paper Section 3)."""

from .bags import (
    bag_min_intersection,
    bag_monus,
    bag_projection,
    bag_union,
    duplicate_elim,
)
from .derived_ops import antijoin, division, semijoin
from .calculus import (
    And,
    Atom,
    CalculusError,
    CalculusQuery,
    EqAtom,
    Exists,
    Formula,
    Or,
    restricted_fragment_ok,
)
from .fixpoint import inflationary_fixpoint, transitive_closure
from .nested import (
    flatten,
    nest_parity,
    powerset,
    singleton,
    unnest,
)
from .operators import (
    cross_op,
    difference_op,
    eq_adom,
    even_query,
    full_complement,
    hat_select_eq,
    identity_query,
    intersection_op,
    projection,
    select_const,
    select_eq,
    self_compose,
    self_cross,
    union_op,
)
from .query import Query, compose, pair_query

__all__ = [name for name in dir() if not name.startswith("_")]
