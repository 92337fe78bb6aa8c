"""Relational mappings between domains (paper Section 2.2).

A *mapping* in the paper's sense is a typed binary relation between two
domains — not required to be functional, injective, total or surjective.
This module provides:

* the abstract :class:`Rel` protocol shared by base mappings and all
  their extensions to complex types;
* :class:`Mapping` — a finite, explicitly enumerated base mapping with
  the classical property tests (functional / injective / total /
  surjective), composition and inverse;
* :class:`IdentityRel` — the identity mapping ``I_b`` on a domain, used
  for base-type leaves (Section 4.1) and for ``bool`` (Section 2.5).

Enumeration of extension mappings can be infinite (e.g. lists of all
lengths), so enumeration-style queries take an :class:`Budget` that
bounds the search; exceeding it raises :class:`Unenumerable`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from ..types.ast import Type
from ..types.values import Value

__all__ = [
    "Rel",
    "Mapping",
    "IdentityRel",
    "ConstantGraphRel",
    "Budget",
    "Unenumerable",
    "identity_on",
    "mapping_from_function",
    "mapping_from_pairs",
]


class Unenumerable(Exception):
    """Raised when a relation cannot be enumerated within the budget."""


@dataclass(frozen=True)
class Budget:
    """Bounds for enumerating extension relations.

    ``max_list_len`` bounds list lengths, ``max_set_size`` set/bag
    cardinalities, and ``max_pairs`` the total number of pairs any
    single enumeration may produce.  Frozen, so that a budget can key
    the maximal-set memo of
    :class:`~repro.mappings.extensions.SetStrongExt`.
    """

    max_list_len: int = 3
    max_set_size: int = 3
    max_pairs: int = 20_000


class Rel:
    """A typed binary relation between two (possibly complex) domains.

    Subclasses implement :meth:`holds`; where mathematically finite they
    also implement :meth:`images`, :meth:`preimages` and :meth:`pairs`.
    """

    source: Type
    target: Type

    def holds(self, x: Value, y: Value) -> bool:
        """True iff the pair ``(x, y)`` is in the relation."""
        raise NotImplementedError

    def images(self, x: Value, budget: Optional[Budget] = None) -> Iterator[Value]:
        """Yield every ``y`` with ``holds(x, y)``."""
        raise Unenumerable(f"{type(self).__name__} cannot enumerate images")

    def preimages(self, y: Value, budget: Optional[Budget] = None) -> Iterator[Value]:
        """Yield every ``x`` with ``holds(x, y)``."""
        raise Unenumerable(f"{type(self).__name__} cannot enumerate preimages")

    def pairs(self, budget: Optional[Budget] = None) -> Iterator[tuple[Value, Value]]:
        """Yield every related pair ``(x, y)``."""
        raise Unenumerable(f"{type(self).__name__} cannot enumerate pairs")

    def inverse(self) -> "Rel":
        """The inverse relation (Section 2.2: inverses of mappings are
        mappings, unlike inverses of functions)."""
        return _InverseRel(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.source} x {self.target})"


class _InverseRel(Rel):
    """Generic inverse wrapper; ``inverse`` of an inverse unwraps."""

    def __init__(self, base: Rel) -> None:
        self._base = base
        self.source = base.target
        self.target = base.source

    def holds(self, x: Value, y: Value) -> bool:
        return self._base.holds(y, x)

    def images(self, x, budget=None):
        return self._base.preimages(x, budget)

    def preimages(self, y, budget=None):
        return self._base.images(y, budget)

    def pairs(self, budget=None):
        for a, b in self._base.pairs(budget):
            yield b, a

    def inverse(self) -> Rel:
        return self._base


class Mapping(Rel):
    """A finite base mapping: an explicit set of typed pairs.

    ``source_domain``/``target_domain`` optionally fix the full domains
    the mapping lives between, enabling the totality and surjectivity
    tests of Proposition 2.8 / Section 3.3.  When omitted they default
    to the active domain/codomain of the pair set.
    """

    def __init__(
        self,
        pairs: Iterable[tuple[Value, Value]],
        source: Type,
        target: Type,
        source_domain: Optional[Iterable[Value]] = None,
        target_domain: Optional[Iterable[Value]] = None,
    ) -> None:
        self._pairs = frozenset(pairs)
        self.source = source
        self.target = target
        self._domain = frozenset(x for x, _ in self._pairs)
        self._codomain = frozenset(y for _, y in self._pairs)
        self.source_domain = (
            frozenset(source_domain) if source_domain is not None else self._domain
        )
        self.target_domain = (
            frozenset(target_domain) if target_domain is not None else self._codomain
        )
        self._images: dict[Value, frozenset] = {}
        self._preimages: dict[Value, frozenset] = {}
        for x, y in self._pairs:
            self._images.setdefault(x, frozenset())
            self._preimages.setdefault(y, frozenset())
            self._images[x] |= {y}
            self._preimages[y] |= {x}

    # -- core protocol ----------------------------------------------------

    def holds(self, x: Value, y: Value) -> bool:
        return (x, y) in self._pairs

    def images(self, x: Value, budget: Optional[Budget] = None) -> Iterator[Value]:
        return iter(self._images.get(x, frozenset()))

    def preimages(self, y: Value, budget: Optional[Budget] = None) -> Iterator[Value]:
        return iter(self._preimages.get(y, frozenset()))

    def pairs(self, budget: Optional[Budget] = None) -> Iterator[tuple[Value, Value]]:
        return iter(self._pairs)

    # -- structure --------------------------------------------------------

    def domain(self) -> frozenset:
        """The set of left elements actually mapped."""
        return self._domain

    def codomain(self) -> frozenset:
        """The set of right elements actually hit."""
        return self._codomain

    def image_set(self, x: Value) -> frozenset:
        return self._images.get(x, frozenset())

    def preimage_set(self, y: Value) -> frozenset:
        return self._preimages.get(y, frozenset())

    def __len__(self) -> int:
        return len(self._pairs)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Mapping)
            and self._pairs == other._pairs
            and self.source == other.source
            and self.target == other.target
        )

    def __hash__(self) -> int:
        return hash((self._pairs, self.source, self.target))

    def __repr__(self) -> str:
        items = ", ".join(
            f"{x!r}->{y!r}" for x, y in sorted(self._pairs, key=repr)[:8]
        )
        suffix = ", ..." if len(self._pairs) > 8 else ""
        return f"Mapping({{{items}{suffix}}} : {self.source} x {self.target})"

    # -- classical mapping classes ----------------------------------------

    def is_functional(self) -> bool:
        """True iff the mapping is a (partial) function left-to-right."""
        return all(len(ys) == 1 for ys in self._images.values())

    def is_injective(self) -> bool:
        """True iff it is functional and one-to-one."""
        return self.is_functional() and all(
            len(xs) == 1 for xs in self._preimages.values()
        )

    def is_total(self) -> bool:
        """True iff every element of the source domain is mapped."""
        return self.source_domain <= self._domain

    def is_surjective(self) -> bool:
        """True iff every element of the target domain is hit."""
        return self.target_domain <= self._codomain

    def is_bijective(self) -> bool:
        """Total + surjective + injective: an isomorphism generator."""
        return self.is_injective() and self.is_total() and self.is_surjective()

    # -- algebra ------------------------------------------------------------

    def compose(self, other: "Mapping") -> "Mapping":
        """Relational composition ``other after self``.

        ``(x, z)`` is in the result iff for some ``y``, ``self(x, y)``
        and ``other(y, z)`` — the H3 = H1 o H2 of Proposition 2.8(iii).
        """
        pairs = {
            (x, z)
            for x, y in self._pairs
            for z in other.image_set(y)
        }
        return Mapping(
            pairs,
            self.source,
            other.target,
            source_domain=self.source_domain,
            target_domain=other.target_domain,
        )

    def inverse(self) -> "Mapping":
        return Mapping(
            {(y, x) for x, y in self._pairs},
            self.target,
            self.source,
            source_domain=self.target_domain,
            target_domain=self.source_domain,
        )

    def restrict(self, left: Iterable[Value]) -> "Mapping":
        """Restrict the mapping to pairs whose left element is in ``left``."""
        keep = set(left)
        return Mapping(
            {(x, y) for x, y in self._pairs if x in keep},
            self.source,
            self.target,
        )

    def union(self, other: "Mapping") -> "Mapping":
        """Union of two mappings of the same type."""
        return Mapping(
            self._pairs | other._pairs,
            self.source,
            self.target,
            source_domain=self.source_domain | other.source_domain,
            target_domain=self.target_domain | other.target_domain,
        )

    def apply(self, x: Value) -> Value:
        """Apply a *functional* mapping to ``x``; raises otherwise."""
        ys = self._images.get(x)
        if ys is None:
            raise KeyError(f"{x!r} not in mapping domain")
        if len(ys) != 1:
            raise ValueError(f"mapping not functional at {x!r}: {sorted(ys, key=repr)}")
        return next(iter(ys))


class IdentityRel(Rel):
    """The identity mapping on a type, optionally with a finite carrier.

    Base-type leaves in a type expression correspond to the identity
    mapping on that type (Section 4.1, the ``count`` discussion); the
    treatment of ``bool`` in Section 2.5 also requires identity.
    """

    def __init__(self, t: Type, carrier: Optional[Iterable[Value]] = None) -> None:
        self.source = t
        self.target = t
        self.carrier = frozenset(carrier) if carrier is not None else None

    def holds(self, x: Value, y: Value) -> bool:
        if self.carrier is not None and x not in self.carrier:
            return False
        return x == y

    def images(self, x, budget=None):
        if self.carrier is not None and x not in self.carrier:
            return iter(())
        return iter((x,))

    preimages = images

    def pairs(self, budget=None):
        if self.carrier is None:
            raise Unenumerable("identity on an unbounded domain")
        return ((x, x) for x in self.carrier)

    def inverse(self) -> "IdentityRel":
        return self


class ConstantGraphRel(Rel):
    """The graph of a Python function as a relation, on a finite carrier.

    Used to treat interpreted functions as mappings (Section 2.5) and
    for ``map(f)`` commutation experiments (Section 4.4).
    """

    def __init__(
        self,
        fn: Callable[[Value], Value],
        source: Type,
        target: Type,
        carrier: Iterable[Value],
    ) -> None:
        self.fn = fn
        self.source = source
        self.target = target
        self.carrier = frozenset(carrier)

    def holds(self, x: Value, y: Value) -> bool:
        return x in self.carrier and self.fn(x) == y

    def images(self, x, budget=None):
        if x in self.carrier:
            yield self.fn(x)

    def preimages(self, y, budget=None):
        return (x for x in self.carrier if self.fn(x) == y)

    def pairs(self, budget=None):
        return ((x, self.fn(x)) for x in self.carrier)


def identity_on(t: Type, carrier: Optional[Iterable[Value]] = None) -> IdentityRel:
    """Identity mapping on type ``t``."""
    return IdentityRel(t, carrier)


def mapping_from_function(
    fn: Callable[[Value], Value],
    domain: Iterable[Value],
    source: Type,
    target: Type,
    target_domain: Optional[Iterable[Value]] = None,
) -> Mapping:
    """The finite graph of ``fn`` restricted to ``domain`` as a Mapping."""
    domain = list(domain)
    return Mapping(
        {(x, fn(x)) for x in domain},
        source,
        target,
        source_domain=domain,
        target_domain=target_domain,
    )


def mapping_from_pairs(
    pairs: Iterable[tuple[Value, Value]], source: Type, target: Type
) -> Mapping:
    """Convenience constructor mirroring the paper's set-of-pairs style."""
    return Mapping(pairs, source, target)
