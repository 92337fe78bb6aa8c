"""Parametricity: logical relations derived from types (Section 4.1).

Given a (closed) type ``T``, :func:`logical_relation` builds the
corresponding mapping ``T`` by induction on the type structure, with
the same walk (:func:`~repro.mappings.extensions.extend_along`) that
extends a genericity mapping family:

* type variables take the mappings assigned to them (independently per
  variable — the ``zip`` discussion);
* base-type leaves take identity mappings (the ``count`` discussion);
* products/lists/sets/bags take the extension constructors of Section 2
  (sets with the ``rel`` mode, per Section 4.2);
* ``->`` takes :class:`~repro.mappings.function_maps.FuncRel`
  (Definition 4.2);
* ``forall`` takes :class:`~repro.mappings.function_maps.ForAllRel`
  (Definition 4.3) quantifying over a supplied candidate family of
  mappings — including mappings between types of *different structure*
  (e.g. ``str x <int>``), which is precisely where parametricity says
  more than genericity (Section 4.3, item 2).

:func:`check_parametricity` then tests the Parametricity Theorem
(Theorem 4.4): for a term ``l : T`` expressible in the calculus,
``T(l, l)`` holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..mappings.extensions import extend_along
from ..mappings.function_maps import ForAllRel, FuncRel
from ..mappings.mapping import Budget, IdentityRel, Mapping, Rel
from ..types.ast import (
    INT,
    STR,
    BaseType,
    ForAll,
    Type,
    TypeError_,
    TypeVar,
    list_of,
)
from ..types.values import CVList

__all__ = [
    "Candidate",
    "default_candidates",
    "eq_candidates",
    "logical_relation",
    "check_parametricity",
    "ParametricityReport",
]

#: A quantifier instance: (alpha, beta, H : alpha x beta).
Candidate = tuple[Type, Type, Rel]

#: Carriers for base-type identity relations, so function relations
#: over base types stay enumerable.
_BASE_CARRIERS: dict[str, tuple] = {
    "bool": (True, False),
    "int": (0, 1, 2),
    "str": ("a", "b"),
}


def default_candidates(injective_only: bool = False) -> list[Candidate]:
    """A standard family of quantifier instances.

    Contains functional, non-functional, partial and *cross-structure*
    mappings — the latter relate values of different shapes (``str`` to
    ``<int>``), exercising the paper's point that parametric functions
    are invariant even under structure-changing mappings.  With
    ``injective_only``, only injective mappings: the ``int`` renaming,
    a ``str`` renaming and the partial mapping."""
    out: list[Candidate] = []

    # An injective renaming int -> int (classical isomorphism seed).
    out.append(
        (
            INT,
            INT,
            Mapping({(0, 10), (1, 11), (2, 12)}, INT, INT,
                    source_domain=(0, 1, 2), target_domain=(10, 11, 12)),
        )
    )
    # A non-injective collapse int -> str.
    if not injective_only:
        out.append(
            (
                INT,
                STR,
                Mapping({(0, "a"), (1, "a"), (2, "b")}, INT, STR,
                        source_domain=(0, 1, 2), target_domain=("a", "b")),
            )
        )
        # A genuinely relational (many-to-many) mapping.
        out.append(
            (
                INT,
                INT,
                Mapping({(0, 10), (0, 11), (1, 11), (2, 12)}, INT, INT,
                        source_domain=(0, 1, 2), target_domain=(10, 11, 12)),
            )
        )
    else:
        out.append(
            (
                STR,
                STR,
                Mapping({("a", "x"), ("b", "y")}, STR, STR,
                        source_domain=("a", "b"), target_domain=("x", "y")),
            )
        )
    # A partial mapping (not total, not surjective).
    out.append(
        (
            INT,
            INT,
            Mapping({(0, 10)}, INT, INT,
                    source_domain=(0, 1), target_domain=(10, 11)),
        )
    )
    if not injective_only:
        # The paper's example: H : str x <int> = {(a,<1>), (b,<7,1>)}.
        out.append(
            (
                STR,
                list_of(INT),
                Mapping(
                    {("a", CVList((1,))), ("b", CVList((7, 1)))},
                    STR,
                    list_of(INT),
                    source_domain=("a", "b"),
                    target_domain=(CVList((1,)), CVList((7, 1))),
                ),
            )
        )
    return out


def eq_candidates() -> list[Candidate]:
    """Candidates for ``forall X=`` — injective mappings only, since
    only those preserve equality (Section 4.1, list difference)."""
    return default_candidates(injective_only=True)


def logical_relation(
    t: Type,
    var_rels: Optional[dict[str, Rel]] = None,
    candidates: Optional[Sequence[Candidate]] = None,
) -> Rel:
    """Build the relation ``T`` corresponding to type ``t``.

    ``var_rels`` assigns relations to free type variables; quantifiers
    range over ``candidates`` (or :func:`eq_candidates` for
    eq-quantifiers)."""
    candidates = list(candidates if candidates is not None else default_candidates())
    eq_family = eq_candidates()

    def relation(node: Type, env: dict[str, Rel]) -> Rel:
        def leaf(n: Type) -> Rel:
            if isinstance(n, TypeVar):
                if n.name not in env:
                    raise TypeError_(f"free type variable {n.name} has no relation")
                return env[n.name]
            if isinstance(n, BaseType):
                return IdentityRel(n, carrier=_BASE_CARRIERS.get(n.name))
            if isinstance(n, ForAll):
                family = eq_family if n.requires_eq else candidates
                return ForAllRel(
                    n, family, lambda h: relation(n.body, {**env, n.var: h})
                )
            raise TypeError_(f"unknown type node: {n!r}")

        return extend_along(node, leaf)

    return relation(t, dict(var_rels or {}))


@dataclass
class ParametricityReport:
    """Outcome of a parametricity check ``T(value, value)``."""

    name: str
    type: Type
    parametric: bool
    violation: Optional[tuple] = None

    def __repr__(self) -> str:
        status = "parametric" if self.parametric else "NOT parametric"
        return f"ParametricityReport({self.name} : {self.type} -- {status})"


def check_parametricity(
    value: object,
    t: Type,
    name: str = "<term>",
    candidates: Optional[Sequence[Candidate]] = None,
    budget: Optional[Budget] = None,
) -> ParametricityReport:
    """Test Theorem 4.4 for ``value : t``: does ``T(value, value)`` hold?

    ``value`` is a runtime value from the evaluator (a
    :class:`PolyValue` for polymorphic terms).  The check is exact over
    the candidate family and the enumeration budget."""
    rel = logical_relation(t, candidates=candidates)
    budget = budget or Budget(max_list_len=2, max_set_size=2, max_pairs=50_000)
    if isinstance(rel, (ForAllRel, FuncRel)):
        violation = rel.witness_violation(value, value, budget)
        return ParametricityReport(name, t, violation is None, violation)
    ok = rel.holds(value, value)
    return ParametricityReport(name, t, ok)
