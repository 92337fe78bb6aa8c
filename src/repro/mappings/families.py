"""Mapping families and preservation of constants, functions, predicates.

Covers Sections 2.4 and 2.5 of the paper:

* a :class:`MappingFamily` packages one base mapping per base type (the
  ``H = {H_i : d_i x d_i'}`` of Section 2.2) and exposes ``extend`` to
  any complex value type with a chosen extension mode;
* first-order constant preservation, regular and strict (Section 2.4.1);
* second-order preservation: a family preserves an interpreted function
  ``f`` if ``f`` is invariant under ``H^x``; a predicate is preserved
  under its functional interpretation with ``bool`` fixed to identity
  (Section 2.5), which yields Proposition 2.13 (``p`` preserved iff
  ``not p`` preserved).
"""

from __future__ import annotations

import itertools
from typing import Mapping as TMapping, Optional

from ..types.ast import BOOL, BaseType, Type, TypeError_
from ..types.signatures import Interpreted
from ..types.values import Value
from .extensions import REL, ExtensionMode, extend_along
from .mapping import Budget, IdentityRel, Mapping, Rel

__all__ = [
    "MappingFamily",
    "preserves_constant",
    "strictly_preserves_constant",
    "preserves_function",
    "preserves_predicate",
    "ConstantSpec",
]


class ConstantSpec:
    """A first-order constant together with its preservation strength.

    ``strict=False`` is regular preservation (``H(c, c)`` holds, and the
    mapping may still associate ``c`` with other values); ``strict=True``
    additionally demands ``x = c  iff  y = c`` for every related pair.
    """

    def __init__(self, value: Value, base: BaseType, strict: bool = False) -> None:
        self.value = value
        self.base = base
        self.strict = strict

    def __repr__(self) -> str:
        kind = "strict" if self.strict else "regular"
        return f"ConstantSpec({self.value!r} : {self.base}, {kind})"


class MappingFamily:
    """A family of base mappings, keyed by base-type name.

    At most one mapping per (domain, codomain) pair, as required in
    Section 2.2 ("we disallow H where two mappings have the same domain
    and codomain").  Extension to complex types goes through
    :func:`repro.mappings.extensions.extend_along`.
    """

    def __init__(self, mappings: TMapping[str, Mapping]) -> None:
        self.mappings = dict(mappings)
        if "bool" in self.mappings:
            raise ValueError("bool must stay identity (Section 2.5)")

    def __getitem__(self, base_name: str) -> Mapping:
        return self.mappings[base_name]

    def __contains__(self, base_name: str) -> bool:
        return base_name in self.mappings

    def extend(self, t: Type, mode: ExtensionMode = REL) -> Rel:
        """The extension ``H^mode`` at complex value type ``t``.

        A base type takes its member mapping, or identity if it has
        none; ``bool`` is always identity (Section 2.5).  ``t`` must be
        closed: a type variable or a ``forall`` raises
        :class:`~repro.types.ast.TypeError_`."""
        return extend_along(t, self._leaf, mode)

    def _leaf(self, node: Type) -> Rel:
        if not isinstance(node, BaseType):
            raise TypeError_(
                f"a mapping family extends closed complex value types; found {node}"
            )
        if node == BOOL:
            return IdentityRel(BOOL, carrier=(True, False))
        return self.mappings.get(node.name, IdentityRel(node))

    def inverse(self) -> "MappingFamily":
        """Invert every member mapping (Prop 2.8(iv) experiments)."""
        return MappingFamily(
            {name: m.inverse() for name, m in self.mappings.items()}
        )

    # -- class membership tests -------------------------------------------

    def is_functional(self) -> bool:
        return all(m.is_functional() for m in self.mappings.values())

    def is_injective(self) -> bool:
        return all(m.is_injective() for m in self.mappings.values())

    def is_total(self) -> bool:
        return all(m.is_total() for m in self.mappings.values())

    def is_surjective(self) -> bool:
        return all(m.is_surjective() for m in self.mappings.values())

    def is_bijective(self) -> bool:
        return all(m.is_bijective() for m in self.mappings.values())

    def __repr__(self) -> str:
        names = ", ".join(sorted(self.mappings))
        return f"MappingFamily({names})"


def preserves_constant(mapping: Mapping, c: Value) -> bool:
    """Regular preservation (Section 2.4.1): ``H(c, c)`` holds.

    Equivalently ``H^rel({c}, {c})``.
    """
    return mapping.holds(c, c)


def strictly_preserves_constant(mapping: Mapping, c: Value) -> bool:
    """Strict preservation: ``H(c, c)`` and for every related pair
    ``(x, y)``, ``x = c`` iff ``y = c``.

    Equivalently ``H^strong({c}, {c})``.
    """
    if not mapping.holds(c, c):
        return False
    return all((x == c) == (y == c) for x, y in mapping.pairs())


def _related_argument_pairs(
    family: MappingFamily,
    arg_types: tuple[Type, ...],
    budget: Optional[Budget],
):
    """Enumerate argument tuples related component-wise by the family."""
    per_argument = [list(family.extend(t).pairs(budget)) for t in arg_types]
    return itertools.product(*per_argument)


def preserves_function(
    family: MappingFamily,
    symbol: Interpreted,
    mode: ExtensionMode = REL,
    budget: Optional[Budget] = None,
) -> bool:
    """Second-order preservation (Section 2.5): ``H^x`` preserves the
    interpreted function ``f`` iff ``f`` is invariant under ``H^x`` —
    whenever the arguments are related, so are the results.
    """
    result_rel = family.extend(symbol.result_type, mode)
    for combo in _related_argument_pairs(family, symbol.arg_types, budget):
        xs = [x for x, _ in combo]
        ys = [y for _, y in combo]
        if not result_rel.holds(symbol.fn(*xs), symbol.fn(*ys)):
            return False
    return True


def preserves_predicate(
    family: MappingFamily,
    symbol: Interpreted,
    mode: ExtensionMode = REL,
    budget: Optional[Budget] = None,
) -> bool:
    """Predicate preservation under the functional interpretation.

    A predicate is a bool-valued function; the mapping is required to be
    the identity on ``bool`` (Section 2.5) — which
    :class:`MappingFamily` guarantees by construction — so preservation
    reduces to :func:`preserves_function`.  Proposition 2.13 (``p``
    preserved iff ``not p`` preserved) follows because identity on bool
    relates equal truth values only.
    """
    if not symbol.is_predicate:
        raise ValueError(f"{symbol.name} is not a predicate")
    return preserves_function(family, symbol, mode, budget)
