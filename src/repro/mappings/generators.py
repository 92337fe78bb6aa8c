"""Random generators for mappings, domains and complex values.

Genericity claims quantify over *classes* of mappings (all, functional,
injective, total, surjective, constant-preserving, ...).  These
generators produce random members of each class between finite sampled
domains, plus random complex values of a given type over those domains
— the raw material for the empirical invariance checks and the
counterexample searches.

All generators are deterministic given a :class:`random.Random` seed,
so experiments are reproducible.
"""

from __future__ import annotations

import itertools
import random
import string
from typing import Optional, Sequence

from ..types.ast import (
    BOOL,
    INT,
    STR,
    BagType,
    BaseType,
    ListType,
    Product,
    SetType,
    Type,
    TypeError_,
)
from ..types.values import CVBag, CVList, CVSet, Tup, Value
from .mapping import Mapping

__all__ = [
    "MAPPING_CLASSES",
    "random_domain",
    "random_mapping",
    "random_functional_mapping",
    "random_injective_mapping",
    "random_bijective_mapping",
    "random_total_surjective_mapping",
    "random_mapping_in_class",
    "random_value",
    "random_relation_value",
    "all_mappings_between",
]

#: The mapping-class lattice explored by the experiments.  Order matters
#: for classification: earlier classes are larger (Proposition 2.10
#: gives the containment-reverses-genericity picture).
MAPPING_CLASSES = (
    "all",
    "total_surjective",
    "functional",
    "surjective_functional",
    "injective",
    "bijective",
)


def random_domain(
    rng: random.Random,
    size: int,
    base: BaseType = INT,
    offset: int = 0,
) -> list[Value]:
    """A fresh finite domain of ``size`` atoms for ``base``."""
    if base == INT:
        return [offset + i for i in range(size)]
    if base == STR:
        letters = string.ascii_lowercase
        out = []
        for i in range(size):
            name = letters[i % 26] + (str(i // 26) if i >= 26 else "")
            out.append(f"{name}{offset if offset else ''}")
        return out
    if base == BOOL:
        return [True, False][:size]
    # Abstract domains: tagged strings.
    return [f"{base.name}_{offset + i}" for i in range(size)]


def random_mapping(
    rng: random.Random,
    left: Sequence[Value],
    right: Sequence[Value],
    source: BaseType = INT,
    target: Optional[BaseType] = None,
    density: float = 0.5,
    ensure_nonempty: bool = True,
) -> Mapping:
    """A random *general* mapping: each pair independently included."""
    target = target or source
    pairs = {
        (x, y)
        for x in left
        for y in right
        if rng.random() < density
    }
    if ensure_nonempty and not pairs and left and right:
        pairs.add((rng.choice(list(left)), rng.choice(list(right))))
    return Mapping(pairs, source, target, source_domain=left, target_domain=right)


def random_functional_mapping(
    rng: random.Random,
    left: Sequence[Value],
    right: Sequence[Value],
    source: BaseType = INT,
    target: Optional[BaseType] = None,
    total: bool = True,
) -> Mapping:
    """A random functional (many-to-one) mapping; total by default."""
    target = target or source
    pairs = set()
    for x in left:
        if total or rng.random() < 0.8:
            pairs.add((x, rng.choice(list(right))))
    return Mapping(pairs, source, target, source_domain=left, target_domain=right)


def random_injective_mapping(
    rng: random.Random,
    left: Sequence[Value],
    right: Sequence[Value],
    source: BaseType = INT,
    target: Optional[BaseType] = None,
    total: bool = True,
) -> Mapping:
    """A random injective (one-to-one) mapping.

    Requires ``len(right) >= len(left)`` when total.
    """
    target = target or source
    chosen_left = list(left)
    if not total:
        chosen_left = [x for x in chosen_left if rng.random() < 0.8] or chosen_left[:1]
    if len(right) < len(chosen_left):
        raise ValueError("codomain too small for an injective total mapping")
    targets = rng.sample(list(right), len(chosen_left))
    pairs = set(zip(chosen_left, targets))
    return Mapping(pairs, source, target, source_domain=left, target_domain=right)


def random_bijective_mapping(
    rng: random.Random,
    left: Sequence[Value],
    right: Sequence[Value],
    source: BaseType = INT,
    target: Optional[BaseType] = None,
) -> Mapping:
    """A random bijection; requires equal domain sizes."""
    if len(left) != len(right):
        raise ValueError("bijection needs equal domain sizes")
    target = target or source
    shuffled = list(right)
    rng.shuffle(shuffled)
    pairs = set(zip(left, shuffled))
    return Mapping(pairs, source, target, source_domain=left, target_domain=right)


def random_total_surjective_mapping(
    rng: random.Random,
    left: Sequence[Value],
    right: Sequence[Value],
    source: BaseType = INT,
    target: Optional[BaseType] = None,
) -> Mapping:
    """A random mapping that is total on the left and surjective on the
    right (Section 3.3's mapping class), not necessarily functional."""
    target = target or source
    pairs = {(x, rng.choice(list(right))) for x in left}
    pairs |= {(rng.choice(list(left)), y) for y in right}
    # Keep the mapping sparse: a dense total+surjective mapping makes
    # every strong closure saturate to the full domains, hiding e.g.
    # parity-breaking collapses from the counterexample search.
    if rng.random() < 0.3:
        pairs.add((rng.choice(list(left)), rng.choice(list(right))))
    return Mapping(pairs, source, target, source_domain=left, target_domain=right)


def random_mapping_in_class(
    rng: random.Random,
    cls: str,
    left: Sequence[Value],
    right: Sequence[Value],
    source: BaseType = INT,
    target: Optional[BaseType] = None,
) -> Mapping:
    """Dispatch on a :data:`MAPPING_CLASSES` name."""
    if cls == "all":
        return random_mapping(rng, left, right, source, target)
    if cls == "total_surjective":
        return random_total_surjective_mapping(rng, left, right, source, target)
    if cls == "functional":
        return random_functional_mapping(rng, left, right, source, target)
    if cls == "surjective_functional":
        # A total function onto the codomain: pick a surjection.
        if len(left) < len(right):
            raise ValueError("domain too small for a surjective function")
        target = target or source
        rights = list(right)
        lefts = list(left)
        rng.shuffle(lefts)
        pairs = set(zip(lefts[: len(rights)], rights))
        for x in lefts[len(rights):]:
            pairs.add((x, rng.choice(rights)))
        return Mapping(pairs, source, target, source_domain=left, target_domain=right)
    if cls == "injective":
        return random_injective_mapping(rng, left, right, source, target)
    if cls == "bijective":
        return random_bijective_mapping(rng, left, right, source, target)
    raise ValueError(f"unknown mapping class: {cls!r}")


def all_mappings_between(
    left: Sequence[Value],
    right: Sequence[Value],
    source: BaseType = INT,
    target: Optional[BaseType] = None,
    nonempty: bool = True,
) -> list[Mapping]:
    """Exhaustively enumerate every mapping between two small domains.

    Feasible only when ``len(left) * len(right)`` is small; used for
    the exact tiers of the experiments.
    """
    target = target or source
    cells = [(x, y) for x in left for y in right]
    if len(cells) > 16:
        raise ValueError("domains too large for exhaustive mapping enumeration")
    out = []
    for bits in itertools.product((False, True), repeat=len(cells)):
        pairs = {cell for cell, bit in zip(cells, bits) if bit}
        if nonempty and not pairs:
            continue
        out.append(
            Mapping(pairs, source, target, source_domain=left, target_domain=right)
        )
    return out


def random_value(
    rng: random.Random,
    t: Type,
    domains: dict[str, Sequence[Value]],
    max_collection: int = 3,
) -> Value:
    """A random complex value of type ``t`` with atoms from ``domains``.

    ``domains`` maps base-type names to their finite carrier.  ``bool``
    defaults to ``{True, False}`` if not supplied.
    """
    if isinstance(t, BaseType):
        if t == BOOL and t.name not in domains:
            return rng.choice((True, False))
        carrier = domains.get(t.name)
        if not carrier:
            raise TypeError_(f"no domain supplied for base type {t.name}")
        return rng.choice(list(carrier))
    if isinstance(t, Product):
        return Tup(
            random_value(rng, c, domains, max_collection) for c in t.components
        )
    if isinstance(t, SetType):
        size = rng.randint(0, max_collection)
        return CVSet(
            random_value(rng, t.element, domains, max_collection)
            for _ in range(size)
        )
    if isinstance(t, BagType):
        size = rng.randint(0, max_collection)
        return CVBag(
            random_value(rng, t.element, domains, max_collection)
            for _ in range(size)
        )
    if isinstance(t, ListType):
        size = rng.randint(0, max_collection)
        return CVList(
            random_value(rng, t.element, domains, max_collection)
            for _ in range(size)
        )
    raise TypeError_(f"cannot generate values of type {t}")


def random_relation_value(
    rng: random.Random,
    arity: int,
    domain: Sequence[Value],
    size: int,
) -> CVSet:
    """A random flat relation: a set of ``size`` distinct ``arity``-tuples."""
    universe = list(itertools.product(domain, repeat=arity))
    size = min(size, len(universe))
    return CVSet(Tup(row) for row in rng.sample(universe, size))
