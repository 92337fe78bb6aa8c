"""Extension of mappings to complex types (Definitions 2.3 - 2.5).

Each type constructor has an associated *mapping constructor*:

* products extend component-wise (Def 2.3);
* lists extend position-wise on equal-length lists (Def 2.4);
* sets have **two** extension modes (Def 2.5):

  - ``rel``:  ``{K}^rel(R1, R2)`` iff every element of each side has a
    partner on the other;
  - ``strong``: additionally each side is the *maximal* set standing in
    the ``rel`` relation to the other.  For functional ``K`` this is
    exactly Chandra's strong homomorphism ``r1(x) <-> r2(h(x))``.

* bags are treated in the full paper only; we adopt the support-based
  analogue of the set modes plus multiplicity preservation for strong
  (documented as a substitution in DESIGN.md).

Both set modes are decided from the inner relation's images and
preimages when their counts can be read without enumerating them
(:class:`Mapping` and :class:`IdentityRel` leaves, and products of
these) and add up to at most ``|R1|*|R2|``.  Otherwise the pairwise
:func:`_rel_condition` runs; it is also the test oracle.

:func:`extend_family` lifts a family of base mappings along a type
expression (the ``H^rel`` / ``H^strong`` of Section 2.2): type variables
take the assigned mappings, base-type leaves take identities (with
``bool`` *always* identity, per Section 2.5).
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, Mapping as TMapping, Optional

from ..types.ast import (
    BOOL,
    BagType,
    BaseType,
    ForAll,
    FuncType,
    ListType,
    Product,
    SetType,
    Type,
    TypeError_,
    TypeVar,
)
from ..types.values import CVBag, CVList, CVSet, Tup, Value
from .mapping import Budget, IdentityRel, Mapping, Rel, Unenumerable

__all__ = [
    "ProductRel",
    "ListRel",
    "SetRelExt",
    "SetStrongExt",
    "BagRelExt",
    "BagStrongExt",
    "extend_family",
    "extend_along",
    "REL",
    "STRONG",
    "ExtensionMode",
]

ExtensionMode = str
REL: ExtensionMode = "rel"
STRONG: ExtensionMode = "strong"

_DEFAULT_BUDGET = Budget()


def _budget(budget: Optional[Budget]) -> Budget:
    return budget if budget is not None else _DEFAULT_BUDGET


class ProductRel(Rel):
    """Component-wise extension ``K1 x ... x Kn`` (Definition 2.3)."""

    def __init__(self, components: tuple[Rel, ...]) -> None:
        self.components = components
        self.source = Product(tuple(c.source for c in components))
        self.target = Product(tuple(c.target for c in components))

    def holds(self, x: Value, y: Value) -> bool:
        if not (isinstance(x, Tup) and isinstance(y, Tup)):
            return False
        if len(x) != len(self.components) or len(y) != len(self.components):
            return False
        return all(
            rel.holds(xi, yi) for rel, xi, yi in zip(self.components, x, y)
        )

    def images(self, x: Value, budget: Optional[Budget] = None) -> Iterator[Value]:
        if not isinstance(x, Tup) or len(x) != len(self.components):
            return
        choices = [list(rel.images(xi, budget)) for rel, xi in zip(self.components, x)]
        for combo in itertools.product(*choices):
            yield Tup(combo)

    def preimages(self, y: Value, budget: Optional[Budget] = None) -> Iterator[Value]:
        if not isinstance(y, Tup) or len(y) != len(self.components):
            return
        choices = [
            list(rel.preimages(yi, budget)) for rel, yi in zip(self.components, y)
        ]
        for combo in itertools.product(*choices):
            yield Tup(combo)

    def pairs(self, budget: Optional[Budget] = None) -> Iterator[tuple[Value, Value]]:
        b = _budget(budget)
        component_pairs = [list(rel.pairs(budget)) for rel in self.components]
        count = 0
        for combo in itertools.product(*component_pairs):
            count += 1
            if count > b.max_pairs:
                raise Unenumerable("product extension exceeds pair budget")
            yield Tup(x for x, _ in combo), Tup(y for _, y in combo)


class ListRel(Rel):
    """Position-wise extension ``<K>`` on equal-length lists (Def 2.4)."""

    def __init__(self, inner: Rel) -> None:
        self.inner = inner
        self.source = ListType(inner.source)
        self.target = ListType(inner.target)

    def holds(self, x: Value, y: Value) -> bool:
        if not (isinstance(x, CVList) and isinstance(y, CVList)):
            return False
        if len(x) != len(y):
            return False
        return all(self.inner.holds(xi, yi) for xi, yi in zip(x, y))

    def images(self, x: Value, budget: Optional[Budget] = None) -> Iterator[Value]:
        if not isinstance(x, CVList):
            return
        choices = [list(self.inner.images(xi, budget)) for xi in x]
        for combo in itertools.product(*choices):
            yield CVList(combo)

    def preimages(self, y: Value, budget: Optional[Budget] = None) -> Iterator[Value]:
        if not isinstance(y, CVList):
            return
        choices = [list(self.inner.preimages(yi, budget)) for yi in y]
        for combo in itertools.product(*choices):
            yield CVList(combo)

    def pairs(self, budget: Optional[Budget] = None) -> Iterator[tuple[Value, Value]]:
        b = _budget(budget)
        inner_pairs = list(self.inner.pairs(budget))
        count = 0
        for length in range(b.max_list_len + 1):
            for combo in itertools.product(inner_pairs, repeat=length):
                count += 1
                if count > b.max_pairs:
                    raise Unenumerable("list extension exceeds pair budget")
                yield CVList(x for x, _ in combo), CVList(y for _, y in combo)


def _rel_condition(inner: Rel, r1: CVSet, r2: CVSet) -> bool:
    """The two-way cover condition of Definition 2.5(1), pairwise."""
    for x in r1:
        if not any(inner.holds(x, y) for y in r2):
            return False
    for y in r2:
        if not any(inner.holds(x, y) for x in r1):
            return False
    return True


def _counter(rel: Rel, forward: bool) -> Optional[Callable[[Value], int]]:
    """A function giving the number of images (``forward``) or preimages
    of a value under ``rel`` without enumerating them; ``None`` unless
    ``rel`` is a :class:`Mapping`, an :class:`IdentityRel` or a product
    of these."""
    if isinstance(rel, Mapping):
        lookup = rel.image_set if forward else rel.preimage_set
        return lambda v: len(lookup(v))
    if isinstance(rel, IdentityRel):
        carrier = rel.carrier
        if carrier is None:
            return lambda v: 1
        return lambda v: int(v in carrier)
    if isinstance(rel, ProductRel):
        parts = [_counter(c, forward) for c in rel.components]
        if any(part is None for part in parts):
            return None
        arity = len(parts)

        def count(v: Value) -> int:
            if not isinstance(v, Tup) or len(v.items) != arity:
                return 0
            n = 1
            for part, vi in zip(parts, v.items):
                n *= part(vi)
            return n

        return count
    return None


_Counts = tuple[Callable[[Value], int], Callable[[Value], int]]


def _counters(inner: Rel) -> Optional[_Counts]:
    """The image and preimage counters of ``inner``, or ``None`` when
    its counts cannot be read without enumerating."""
    images = _counter(inner, True)
    return None if images is None else (images, _counter(inner, False))


def _images_cheaper(counts: Optional[_Counts], r1: CVSet, r2: CVSet) -> bool:
    """True when the images of ``r1`` and preimages of ``r2`` are
    countable and number at most ``|r1|*|r2|``, the ``holds`` calls of
    :func:`_rel_condition`."""
    if counts is None:
        return False
    count_images, count_preimages = counts
    limit = len(r1) * len(r2)
    total = sum(map(count_images, r1))
    return total <= limit and total + sum(map(count_preimages, r2)) <= limit


def _covers(inner: Rel, r1: CVSet, r2: CVSet) -> bool:
    """Definition 2.5(1) from images: every ``x`` in ``r1`` has an image
    in ``r2`` and every ``y`` in ``r2`` a preimage in ``r1``."""
    left, right = r1.frozen(), r2.frozen()
    return all(not right.isdisjoint(inner.images(x)) for x in left) and all(
        not left.isdisjoint(inner.preimages(y)) for y in right
    )


def _rel_holds(
    inner: Rel, counts: Optional[_Counts], r1: CVSet, r2: CVSet
) -> bool:
    """``{K}^rel(r1, r2)``: from images when that is cheaper, else
    pairwise."""
    if _images_cheaper(counts, r1, r2):
        return _covers(inner, r1, r2)
    return _rel_condition(inner, r1, r2)


class SetRelExt(Rel):
    """``{K}^rel`` — the unrestricted-homomorphism set extension."""

    def __init__(self, inner: Rel) -> None:
        self.inner = inner
        self.source = SetType(inner.source)
        self.target = SetType(inner.target)
        self._counts = _counters(inner)

    def holds(self, x: Value, y: Value) -> bool:
        if not (isinstance(x, CVSet) and isinstance(y, CVSet)):
            return False
        return _rel_holds(self.inner, self._counts, x, y)

    def images(self, x: Value, budget: Optional[Budget] = None) -> Iterator[Value]:
        """All ``R2`` with ``{K}^rel(x, R2)``.

        Every valid image is a union of nonempty subsets of the
        element-wise image sets, so we enumerate those unions.
        """
        if not isinstance(x, CVSet):
            return
        b = _budget(budget)
        element_images = [frozenset(self.inner.images(xi, budget)) for xi in x]
        if any(not s for s in element_images):
            return
        if not element_images:
            yield CVSet()
            return
        subset_choices = []
        for s in element_images:
            items = sorted(s, key=repr)
            nonempty = [
                frozenset(c)
                for size in range(1, len(items) + 1)
                for c in itertools.combinations(items, size)
            ]
            subset_choices.append(nonempty)
        seen: set = set()
        count = 0
        for combo in itertools.product(*subset_choices):
            union: frozenset = frozenset().union(*combo)
            candidate = CVSet(union)
            if candidate in seen:
                continue
            seen.add(candidate)
            count += 1
            if count > b.max_pairs:
                raise Unenumerable("set-rel extension exceeds pair budget")
            yield candidate

    def preimages(self, y: Value, budget: Optional[Budget] = None) -> Iterator[Value]:
        return SetRelExt(self.inner.inverse()).images(y, budget)

    def pairs(self, budget: Optional[Budget] = None) -> Iterator[tuple[Value, Value]]:
        b = _budget(budget)
        inner_pairs = list(self.inner.pairs(budget))
        lefts = {x for x, _ in inner_pairs}
        count = 0
        for size in range(min(b.max_set_size, len(lefts)) + 1):
            for left_combo in itertools.combinations(sorted(lefts, key=repr), size):
                left = CVSet(left_combo)
                for right in self.images(left, budget):
                    count += 1
                    if count > b.max_pairs:
                        raise Unenumerable("set-rel extension exceeds pair budget")
                    yield left, right


class SetStrongExt(Rel):
    """``{K}^strong`` — Def 2.5(2): rel + two-sided maximality.

    Maximality of ``R1`` w.r.t. ``R2`` means ``R1`` equals the set of
    *all* domain elements with a partner in ``R2``; symmetrically for
    ``R2``.  Proposition 2.8(ii): on set types the strong extension is
    injective, i.e. each side determines the other — which is what makes
    images/preimages computable here.

    The two maximality equalities already imply the cover of Def
    2.5(1): ``maximal_image(R1) == R2`` gives every ``y`` in ``R2`` a
    preimage in ``R1``, and ``maximal_preimage(R2) == R1`` every ``x``
    in ``R1`` an image in ``R2``.  So when the inner counts are cheap
    and the maximal sets are memoized or cost at most the pairwise
    check, that check is skipped.  Maximal sets are memoized per
    ``(set, budget)`` on the instance; a budget is part of the key so
    that the memo never changes which calls raise :class:`Unenumerable`.
    """

    def __init__(self, inner: Rel) -> None:
        self.inner = inner
        self.source = SetType(inner.source)
        self.target = SetType(inner.target)
        self._counts = _counters(inner)
        self._image_memo: dict[tuple[CVSet, Optional[Budget]], CVSet] = {}
        self._preimage_memo: dict[tuple[CVSet, Optional[Budget]], CVSet] = {}

    def maximal_image(self, r1: CVSet, budget: Optional[Budget] = None) -> CVSet:
        """Every image of an element of ``r1``: the only ``R2`` that can
        be maximal w.r.t. ``r1``."""
        key = (r1, budget)
        out = self._image_memo.get(key)
        if out is None:
            found: set = set()
            for x in r1:
                found.update(self.inner.images(x, budget))
            out = self._image_memo[key] = CVSet(found)
        return out

    def maximal_preimage(self, r2: CVSet, budget: Optional[Budget] = None) -> CVSet:
        """Every preimage of an element of ``r2``: the only ``R1`` that
        can be maximal w.r.t. ``r2``."""
        key = (r2, budget)
        out = self._preimage_memo.get(key)
        if out is None:
            found: set = set()
            for y in r2:
                found.update(self.inner.preimages(y, budget))
            out = self._preimage_memo[key] = CVSet(found)
        return out

    def _maximality_decides(
        self, x: CVSet, y: CVSet, budget: Optional[Budget]
    ) -> bool:
        """True when the maximality equalities alone may decide
        ``holds(x, y)``: the inner counts are cheap, and both maximal
        sets are memoized or cost at most the pairwise cover check."""
        if self._counts is None:
            return False
        if (x, budget) in self._image_memo and (y, budget) in self._preimage_memo:
            return True
        return _images_cheaper(self._counts, x, y)

    def holds(self, x: Value, y: Value, budget: Optional[Budget] = None) -> bool:
        if not (isinstance(x, CVSet) and isinstance(y, CVSet)):
            return False
        if not self._maximality_decides(x, y, budget):
            if not _rel_condition(self.inner, x, y):
                return False
        return (
            self.maximal_preimage(y, budget) == x
            and self.maximal_image(x, budget) == y
        )

    def images(self, x: Value, budget: Optional[Budget] = None) -> Iterator[Value]:
        if not isinstance(x, CVSet):
            return
        candidate = self.maximal_image(x, budget)
        if self._counts is not None:
            related = self.maximal_preimage(candidate, budget) == x
        else:
            related = self.holds(x, candidate, budget)
        if related:
            yield candidate

    def preimages(self, y: Value, budget: Optional[Budget] = None) -> Iterator[Value]:
        if not isinstance(y, CVSet):
            return
        candidate = self.maximal_preimage(y, budget)
        if self._counts is not None:
            related = self.maximal_image(candidate, budget) == y
        else:
            related = self.holds(candidate, y, budget)
        if related:
            yield candidate

    def pairs(self, budget: Optional[Budget] = None) -> Iterator[tuple[Value, Value]]:
        b = _budget(budget)
        inner_pairs = list(self.inner.pairs(budget))
        lefts = {x for x, _ in inner_pairs}
        count = 0
        for size in range(min(b.max_set_size, len(lefts)) + 1):
            for combo in itertools.combinations(sorted(lefts, key=repr), size):
                left = CVSet(combo)
                for right in self.images(left, budget):
                    count += 1
                    if count > b.max_pairs:
                        raise Unenumerable("set-strong extension exceeds pair budget")
                    yield left, right


class BagRelExt(Rel):
    """Support-based ``rel`` extension to bags.

    The PODS abstract defers bags to the full paper; we adopt the
    direct analogue of Def 2.5(1) on bag supports (see DESIGN.md).
    """

    def __init__(self, inner: Rel) -> None:
        self.inner = inner
        self.source = BagType(inner.source)
        self.target = BagType(inner.target)
        self._counts = _counters(inner)

    def holds(self, x: Value, y: Value) -> bool:
        if not (isinstance(x, CVBag) and isinstance(y, CVBag)):
            return False
        return _rel_holds(
            self.inner, self._counts, CVSet(x.support()), CVSet(y.support())
        )


class BagStrongExt(Rel):
    """Support-based ``strong`` extension to bags with multiplicity
    preservation: supports relate strongly and matched elements carry
    equal total multiplicity mass on each side."""

    def __init__(self, inner: Rel) -> None:
        self.inner = inner
        self.source = BagType(inner.source)
        self.target = BagType(inner.target)
        self._supports = SetStrongExt(inner)

    def holds(self, x: Value, y: Value, budget: Optional[Budget] = None) -> bool:
        if not (isinstance(x, CVBag) and isinstance(y, CVBag)):
            return False
        if not self._supports.holds(
            CVSet(x.support()), CVSet(y.support()), budget
        ):
            return False
        return len(x) == len(y)


def extend_along(
    template: Type,
    assignment: TMapping[str, Rel],
    mode: ExtensionMode = REL,
    node_modes: Optional[TMapping[int, ExtensionMode]] = None,
) -> Rel:
    """Extend mappings along a type expression (Section 2.2).

    Type variables are replaced by the assigned relations; base-type
    leaves become identity mappings, with ``bool`` always identity
    (Section 2.5).  ``mode`` selects the extension mode at every set
    node; a *mixed* labeling can be given via ``node_modes``, keyed by
    the pre-order index of the set node in the type tree.

    Function types become :class:`~repro.mappings.function_maps.FuncRel`
    (imported lazily to avoid a cycle); ``forall`` is rejected here —
    parametricity relations live in :mod:`repro.lambda2.parametricity`.
    """
    from .function_maps import FuncRel

    if mode not in (REL, STRONG):
        raise TypeError_(f"unknown extension mode: {mode!r}")

    set_index = itertools.count()

    def walk(t: Type) -> Rel:
        if isinstance(t, TypeVar):
            if t.name not in assignment:
                raise TypeError_(f"no mapping assigned to type variable {t.name}")
            return assignment[t.name]
        if isinstance(t, BaseType):
            return IdentityRel(t)
        if isinstance(t, Product):
            return ProductRel(tuple(walk(c) for c in t.components))
        if isinstance(t, ListType):
            return ListRel(walk(t.element))
        if isinstance(t, SetType):
            index = next(set_index)
            node_mode = (node_modes or {}).get(index, mode)
            inner = walk(t.element)
            if node_mode == STRONG:
                return SetStrongExt(inner)
            return SetRelExt(inner)
        if isinstance(t, BagType):
            inner = walk(t.element)
            if mode == STRONG:
                return BagStrongExt(inner)
            return BagRelExt(inner)
        if isinstance(t, FuncType):
            return FuncRel(walk(t.arg), walk(t.result))
        if isinstance(t, ForAll):
            raise TypeError_(
                "forall types are handled by repro.lambda2.parametricity"
            )
        raise TypeError_(f"unknown type node: {t!r}")

    return walk(template)


def extend_family(
    t: Type,
    family: TMapping[str, Rel],
    mode: ExtensionMode = REL,
) -> Rel:
    """Extend a family of base mappings ``{H_i : d_i x d_i'}`` to a
    mapping on the complex value type ``t`` — the ``H^rel`` / ``H^strong``
    of Section 2.2.

    ``family`` is keyed by the *source* base-type name.  Base types
    without an assigned mapping (and always ``bool``) take identity.
    """
    from .function_maps import FuncRel

    if mode not in (REL, STRONG):
        raise TypeError_(f"unknown extension mode: {mode!r}")

    def walk(node: Type) -> Rel:
        if isinstance(node, BaseType):
            if node == BOOL:
                return IdentityRel(BOOL, carrier=(True, False))
            return family.get(node.name, IdentityRel(node))
        if isinstance(node, TypeVar):
            raise TypeError_(
                "extend_family expects a closed complex value type; "
                f"found variable {node.name} (use extend_along)"
            )
        if isinstance(node, Product):
            return ProductRel(tuple(walk(c) for c in node.components))
        if isinstance(node, ListType):
            return ListRel(walk(node.element))
        if isinstance(node, SetType):
            inner = walk(node.element)
            return SetStrongExt(inner) if mode == STRONG else SetRelExt(inner)
        if isinstance(node, BagType):
            inner = walk(node.element)
            return BagStrongExt(inner) if mode == STRONG else BagRelExt(inner)
        if isinstance(node, FuncType):
            return FuncRel(walk(node.arg), walk(node.result))
        raise TypeError_(f"unknown type node in complex value type: {node!r}")

    return walk(t)
