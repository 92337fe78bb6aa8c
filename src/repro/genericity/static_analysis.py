"""Static genericity analysis of query plans.

The paper closes hoping that "type checking and type inference
algorithms can be used to verify or discover such properties
automatically" (Section 5).  This module is that idea for the plan
algebra: instead of *testing* a composed query's genericity, it
*derives* a sound upper bound from the closure theorems —

* Prop 3.1: composition, x, U, map preserve full genericity;
* Prop 3.6: U, &, Pi, x, -, sigma-hat preserve strong genericity;
* equality-using operators cap the rel side at the injective class;
* operators mentioning constants or opaque predicates cap both sides
  (soundly) at the injective class unless declared otherwise.

The derived profile is a *guarantee*: the dynamic classifier can only
ever find the query in the same or a larger class (experiment E-STATIC
checks exactly this containment).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from ..optimizer.plan import (
    Difference,
    Intersect,
    Join,
    MapNode,
    Plan,
    Product,
    Project,
    Scan,
    Select,
    Union,
)

__all__ = ["ClassBound", "Profile", "analyze_plan", "PROFILE_TABLE"]


class ClassBound(IntEnum):
    """Lower bounds in the mapping-class lattice, ordered by strength.

    ``ALL``: generic w.r.t. all mappings (the strongest guarantee).
    ``INJECTIVE``: guaranteed from the (total) injective class down —
    pure-equality operators land here.
    ``NONE``: no class guarantee derived — operators with opaque
    predicates, interpreted functions or constants are only generic
    w.r.t. mappings preserving those symbols (Sections 2.4-2.5), which
    this conservative analysis does not track."""

    NONE = 0
    INJECTIVE = 1
    ALL = 2

    def meet(self, other: "ClassBound") -> "ClassBound":
        return ClassBound(min(self, other))

    def label(self) -> str:
        return {2: "all", 1: "injective", 0: "none"}[int(self)]


@dataclass(frozen=True)
class Profile:
    """A (rel, strong) pair of guaranteed genericity bounds."""

    rel: ClassBound
    strong: ClassBound

    def meet(self, other: "Profile") -> "Profile":
        return Profile(self.rel.meet(other.rel), self.strong.meet(other.strong))

    def __str__(self) -> str:
        return f"rel>={self.rel.label()}, strong>={self.strong.label()}"


#: Per-operator profiles from the paper's results.
FULLY_GENERIC = Profile(ClassBound.ALL, ClassBound.ALL)
#: Equality used but eliminated from the output (sigma-hat style; -, &):
#: strong-full, rel only from injective down.
STRONG_SIDE = Profile(ClassBound.INJECTIVE, ClassBound.ALL)
#: Pure equality *shown* in the output (equi-join keeps both columns):
#: injective on both sides.
EQUALITY_SHOWN = Profile(ClassBound.INJECTIVE, ClassBound.INJECTIVE)
#: Opaque predicates / functions / constants: no class guarantee.
NO_GUARANTEE = Profile(ClassBound.NONE, ClassBound.NONE)

PROFILE_TABLE: dict[type, Profile] = {
    Scan: FULLY_GENERIC,
    Project: FULLY_GENERIC,          # Prop 3.1
    Union: FULLY_GENERIC,            # Prop 3.1
    Product: FULLY_GENERIC,          # Prop 3.1
    Difference: STRONG_SIDE,         # Props 3.4/3.6
    Intersect: STRONG_SIDE,          # Props 3.4/3.6
    Join: EQUALITY_SHOWN,            # keeps both joined columns
    Select: NO_GUARANTEE,            # opaque predicate: assume nothing
    MapNode: NO_GUARANTEE,           # opaque function: assume nothing
}


def analyze_plan(plan: Plan) -> Profile:
    """Derive the guaranteed genericity profile of a composed plan.

    The profile of a node is its operator profile met with its
    children's — closure under composition (Prop 3.1 for the fully
    generic side, Prop 3.6 for the strong side).  The meet is
    associative, so the plan's profile is the meet over all its nodes,
    taken on an explicit stack: plans of any depth are analyzed."""
    profile = FULLY_GENERIC
    stack = [plan]
    while stack:
        node = stack.pop()
        node_profile = PROFILE_TABLE.get(type(node))
        if node_profile is None:
            raise TypeError(
                f"no genericity profile for {type(node).__name__}"
            )
        profile = profile.meet(node_profile)
        stack.extend(reversed(node.children()))
    return profile
