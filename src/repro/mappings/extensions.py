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

When the inner relation is a :class:`Mapping`, an :class:`IdentityRel`
or a :class:`ProductRel` nested over these, ``holds`` decides both set
modes on plain tuples of leaf values, reading only the leaves' image
and preimage sets (:class:`_Leaves`).  Otherwise the pairwise
:func:`_rel_condition` runs; it is also the test oracle.

:func:`extend_along` builds the relation of a type from these
constructors; its caller gives the relation at the leaves.  A
:class:`~repro.mappings.families.MappingFamily` extends its base
mappings this way (the ``H^rel`` / ``H^strong`` of Section 2.2), and
:func:`~repro.lambda2.parametricity.logical_relation` builds the
parametricity relation ``T`` (Section 4.1).
"""

from __future__ import annotations

import itertools
from typing import (
    Any,
    Callable,
    Collection,
    Iterable,
    Iterator,
    NamedTuple,
    Optional,
)

from ..types.ast import (
    BagType,
    FuncType,
    ListType,
    Product,
    SetType,
    Type,
    TypeError_,
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

    def holds(self, x: Value, y: Value, budget: Optional[Budget] = None) -> bool:
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

    def holds(self, x: Value, y: Value, budget: Optional[Budget] = None) -> bool:
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


def _rel_condition(
    inner: Rel, r1: Collection[Value], r2: Collection[Value]
) -> bool:
    """The two-way cover condition of Definition 2.5(1), pairwise."""
    for x in r1:
        if not any(inner.holds(x, y) for y in r2):
            return False
    for y in r2:
        if not any(inner.holds(x, y) for x in r1):
            return False
    return True


_Partners = Callable[[Value], Collection[Value]]


class _Leaves(NamedTuple):
    """An inner relation taken apart into its leaves.

    For a :class:`Mapping`, an :class:`IdentityRel` or a
    :class:`ProductRel` nested over these (Def 2.3 relates products one
    component at a time), ``flatten`` turns an element into the plain
    tuple of its leaf values, or ``None`` when the element does not have
    the product's shape and so has no partner; ``images[i]`` and
    ``preimages[i]`` give the partners of a value at leaf ``i``.  A bare
    ``Mapping`` or ``IdentityRel`` is the one-leaf case.
    """

    flatten: Callable[[Value], Optional[tuple]]
    images: list[_Partners]
    preimages: list[_Partners]

    def flat(self, values: Iterable[Value]) -> Optional[list[tuple]]:
        """The leaf tuples of ``values``; ``None`` if one is ill-shaped."""
        out = list(map(self.flatten, values))
        return None if None in out else out


def _one_leaf(v: Value) -> tuple:
    """The leaf tuple of a one-leaf element; also the partners of ``v``
    under an identity."""
    return (v,)


def _leaves(rel: Rel) -> Optional[_Leaves]:
    """``rel`` taken apart into its leaves, or ``None`` when some leaf is
    not a :class:`Mapping` or an :class:`IdentityRel`, or when there is
    no leaf (the unit type ``()``)."""
    if isinstance(rel, Mapping):
        return _Leaves(_one_leaf, [rel.image_set], [rel.preimage_set])
    if isinstance(rel, IdentityRel):
        carrier = rel.carrier
        if carrier is None:
            return _Leaves(_one_leaf, [_one_leaf], [_one_leaf])

        def itself(v: Value) -> tuple:
            return (v,) if v in carrier else ()

        return _Leaves(_one_leaf, [itself], [itself])
    if not isinstance(rel, ProductRel):
        return None
    parts = [_leaves(c) for c in rel.components]
    if None in parts:
        return None
    images = [f for part in parts for f in part.images]
    if not images:
        return None
    arity = len(parts)
    flattens = [part.flatten for part in parts]

    def flatten(v: Value) -> Optional[tuple]:
        if not isinstance(v, Tup) or len(v.items) != arity:
            return None
        out: tuple = ()
        for part, item in zip(flattens, v.items):
            leaf_values = part(item)
            if leaf_values is None:
                return None
            out += leaf_values
        return out

    return _Leaves(flatten, images, [f for part in parts for f in part.preimages])


def _index(flats: list[tuple], last: int) -> Any:
    """The leaf tuples ``flats`` keyed leaf by leaf: nested dicts, with
    a set of the values at leaf ``last`` at the bottom."""
    root: Any = set() if last == 0 else {}
    for t in flats:
        node = root
        for depth in range(last):
            child = node.get(t[depth])
            if child is None:
                child = node[t[depth]] = set() if depth == last - 1 else {}
            node = child
        node.add(t[last])
    return root


def _reaches(node: Any, partners: list, depth: int, last: int) -> bool:
    """True when some path below ``node`` takes, at each leaf from
    ``depth`` on, a key among that leaf's ``partners``.  Each level
    iterates the smaller of the node's keys and the partner set."""
    keys = partners[depth]
    if depth == last:
        return not node.isdisjoint(keys)
    if len(keys) < len(node):
        for key in keys:
            child = node.get(key)
            if child is not None and _reaches(child, partners, depth + 1, last):
                return True
        return False
    for key, child in node.items():
        if key in keys and _reaches(child, partners, depth + 1, last):
            return True
    return False


def _each_reaches(
    flats: list[tuple], lookups: list[_Partners], other: list[tuple]
) -> bool:
    """Every leaf tuple of ``flats`` has a partner among ``other``."""
    last = len(lookups) - 1
    index = _index(other, last)
    for t in flats:
        partners = [lookup(v) for lookup, v in zip(lookups, t)]
        if not all(partners) or not _reaches(index, partners, 0, last):
            return False
    return True


def _cover_on_leaves(
    leaves: _Leaves, r1: Iterable[Value], r2: Iterable[Value]
) -> bool:
    """Definition 2.5(1) on leaf tuples: every element of ``r1`` has an
    image in ``r2`` and every element of ``r2`` a preimage in ``r1``."""
    left, right = leaves.flat(r1), leaves.flat(r2)
    if left is None or right is None:
        return False
    return _each_reaches(left, leaves.images, right) and _each_reaches(
        right, leaves.preimages, left
    )


def _within(flats: list[tuple], lookups: list[_Partners], other: set) -> bool:
    """Every leaf tuple of ``flats`` has a partner, and all its partners
    lie in ``other``."""
    for t in flats:
        partners = [lookup(v) for lookup, v in zip(lookups, t)]
        if not all(partners):
            return False
        for partner in itertools.product(*partners):
            if partner not in other:
                return False
    return True


def _maximal_on_leaves(leaves: _Leaves, r1: CVSet, r2: CVSet) -> bool:
    """``maximal_image(r1) == r2 and maximal_preimage(r2) == r1`` on leaf
    tuples, building no value: both hold exactly when every element of
    each side has a partner and all its partners lie on the other side.
    The partners of a tuple are the ``itertools.product`` of its leaf
    partner sets, and the check stops at the first that falls outside."""
    left, right = leaves.flat(r1), leaves.flat(r2)
    if left is None or right is None:
        return False
    return _within(left, leaves.images, set(right)) and _within(
        right, leaves.preimages, set(left)
    )


def _rel_holds(
    inner: Rel, leaves: Optional[_Leaves], r1: Iterable[Value], r2: Iterable[Value]
) -> bool:
    """``{K}^rel(r1, r2)``: on leaf tuples when ``inner`` comes apart
    into leaves, else pairwise."""
    if leaves is not None:
        return _cover_on_leaves(leaves, r1, r2)
    return _rel_condition(inner, r1, r2)


def _set_pairs(
    rel: SetRelExt | SetStrongExt, budget: Optional[Budget], kind: str
) -> Iterator[tuple[Value, Value]]:
    """The related pairs of a set extension: each left set of at most
    ``max_set_size`` inner left values, with each of its images."""
    b = _budget(budget)
    lefts = {x for x, _ in rel.inner.pairs(budget)}
    count = 0
    for size in range(min(b.max_set_size, len(lefts)) + 1):
        for combo in itertools.combinations(sorted(lefts, key=repr), size):
            left = CVSet(combo)
            for right in rel.images(left, budget):
                count += 1
                if count > b.max_pairs:
                    raise Unenumerable(f"{kind} extension exceeds pair budget")
                yield left, right


class SetRelExt(Rel):
    """``{K}^rel`` — the unrestricted-homomorphism set extension."""

    def __init__(self, inner: Rel) -> None:
        self.inner = inner
        self.source = SetType(inner.source)
        self.target = SetType(inner.target)
        self._leaves = _leaves(inner)

    def holds(self, x: Value, y: Value, budget: Optional[Budget] = None) -> bool:
        if not (isinstance(x, CVSet) and isinstance(y, CVSet)):
            return False
        return _rel_holds(self.inner, self._leaves, x, y)

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
        return _set_pairs(self, budget, "set-rel")


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
    in ``R1`` an image in ``R2``.  So for an inner that comes apart into
    leaves, ``holds`` checks only the equalities: on leaf tuples, or by
    two lookups when both maximal sets are memoized.  Maximal sets are
    memoized per ``(set, budget)`` on the instance; a budget is part of
    the key so that the memo never changes which calls raise
    :class:`Unenumerable`.
    """

    def __init__(self, inner: Rel) -> None:
        self.inner = inner
        self.source = SetType(inner.source)
        self.target = SetType(inner.target)
        self._leaves = _leaves(inner)
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

    def holds(self, x: Value, y: Value, budget: Optional[Budget] = None) -> bool:
        if not (isinstance(x, CVSet) and isinstance(y, CVSet)):
            return False
        if self._leaves is None:
            if not _rel_condition(self.inner, x, y):
                return False
        else:
            images, preimages = self._image_memo, self._preimage_memo
            if (x, budget) not in images or (y, budget) not in preimages:
                return _maximal_on_leaves(self._leaves, x, y)
        return (
            self.maximal_preimage(y, budget) == x
            and self.maximal_image(x, budget) == y
        )

    def images(self, x: Value, budget: Optional[Budget] = None) -> Iterator[Value]:
        if not isinstance(x, CVSet):
            return
        candidate = self.maximal_image(x, budget)
        if self._leaves is not None:
            related = self.maximal_preimage(candidate, budget) == x
        else:
            related = self.holds(x, candidate, budget)
        if related:
            yield candidate

    def preimages(self, y: Value, budget: Optional[Budget] = None) -> Iterator[Value]:
        if not isinstance(y, CVSet):
            return
        candidate = self.maximal_preimage(y, budget)
        if self._leaves is not None:
            related = self.maximal_image(candidate, budget) == y
        else:
            related = self.holds(candidate, y, budget)
        if related:
            yield candidate

    def pairs(self, budget: Optional[Budget] = None) -> Iterator[tuple[Value, Value]]:
        return _set_pairs(self, budget, "set-strong")


class BagRelExt(Rel):
    """Support-based ``rel`` extension to bags.

    The PODS abstract defers bags to the full paper; we adopt the
    direct analogue of Def 2.5(1) on bag supports (see DESIGN.md).
    """

    def __init__(self, inner: Rel) -> None:
        self.inner = inner
        self.source = BagType(inner.source)
        self.target = BagType(inner.target)
        self._leaves = _leaves(inner)

    def holds(self, x: Value, y: Value, budget: Optional[Budget] = None) -> bool:
        if not (isinstance(x, CVBag) and isinstance(y, CVBag)):
            return False
        return _rel_holds(self.inner, self._leaves, x.support(), y.support())

    def pairs(self, budget: Optional[Budget] = None) -> Iterator[tuple[Value, Value]]:
        """The bounded carriers, filtered by ``holds``."""
        from .carriers import enumerate_pairs  # carriers imports this module

        return enumerate_pairs(self, budget)


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

    def pairs(self, budget: Optional[Budget] = None) -> Iterator[tuple[Value, Value]]:
        """The bounded carriers, filtered by ``holds``."""
        from .carriers import enumerate_pairs  # carriers imports this module

        return enumerate_pairs(self, budget)


def extend_along(
    t: Type, leaf: Callable[[Type], Rel], mode: ExtensionMode = REL
) -> Rel:
    """The relation of type ``t``, built from the extension constructors.

    This one walk builds both the ``H^rel`` / ``H^strong`` of Section
    2.2 and the parametricity relation ``T`` of Section 4.1: products,
    lists, sets, bags and arrows take their constructors, with ``mode``
    at every set and bag node; ``leaf(node)`` gives the relation at
    every other node (a base type, a type variable or a ``forall``).
    Function types take :class:`~repro.mappings.function_maps.FuncRel`
    (imported lazily to avoid a cycle).
    """
    from .function_maps import FuncRel

    if mode not in (REL, STRONG):
        raise TypeError_(f"unknown extension mode: {mode!r}")
    strong = mode == STRONG

    def walk(node: Type) -> Rel:
        if isinstance(node, Product):
            return ProductRel(tuple(walk(c) for c in node.components))
        if isinstance(node, ListType):
            return ListRel(walk(node.element))
        if isinstance(node, SetType):
            inner = walk(node.element)
            return SetStrongExt(inner) if strong else SetRelExt(inner)
        if isinstance(node, BagType):
            inner = walk(node.element)
            return BagStrongExt(inner) if strong else BagRelExt(inner)
        if isinstance(node, FuncType):
            return FuncRel(walk(node.arg), walk(node.result))
        return leaf(node)

    return walk(t)
