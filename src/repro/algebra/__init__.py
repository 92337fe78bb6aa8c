"""Relational and nested algebra substrate (paper Section 3)."""

from .bags import (
    bag_map,
    bag_min_intersection,
    bag_monus,
    bag_of_set,
    bag_projection,
    bag_select_eq,
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
from .fixpoint import inflationary_fixpoint, transitive_closure, while_query
from .nested import (
    deep_flatten,
    flatten,
    nest,
    nest_parity,
    powerset,
    set_map,
    singleton,
    unnest,
)
from .operators import (
    active_domain,
    adom_complement,
    cross_op,
    difference_op,
    eq_adom,
    even_query,
    empty_query,
    full_complement,
    hat_select_eq,
    identity_query,
    ins_const,
    intersection_op,
    map_query,
    natural_join,
    projection,
    projection_out,
    rename_query,
    select_const,
    select_eq,
    select_pred,
    self_compose,
    self_cross,
    union_op,
)
from .query import Query, compose, constant_query, pair_query

__all__ = [name for name in dir() if not name.startswith("_")]
