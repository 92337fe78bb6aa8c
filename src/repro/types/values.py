"""Typed complex values.

The paper's value universe (Section 2) consists of atoms drawn from base
domains, closed under tuple, set, bag and list construction.  We realize
it with four immutable, hashable wrapper classes so that

* sets of sets, sets of tuples of lists, etc. are all well defined;
* products (:class:`Tup`) and lists (:class:`CVList`) are distinct types
  even though both are sequence-like, matching Definition 2.1;
* values can be used as dictionary keys by the mapping machinery.

Atoms are plain Python ``int``/``bool``/``str``/``float`` values.
``bool`` atoms are kept distinct from ``int`` atoms (Python's bool is an
int subclass; we always test ``bool`` first).

All four classes are slotted and store their hash when they are built,
so hashing a value, which every set insert and lookup does, reads one
int.  ``CVSet``, ``CVBag`` and ``CVList`` mix an integer class tag into
their hash, so a value built from ``int``, ``bool`` and ``float`` atoms
hashes, and a set of such values iterates, the same under every
``PYTHONHASHSEED``; the genericity searches draw from int domains, so
their results do not depend on the seed.  ``str`` atoms still hash per
seed, so a value pickles as its constructor call and rebuilds its hash
in the process that loads it: a worker process started with another
seed still finds it in its sets.
"""

from __future__ import annotations

import operator
from collections import Counter
from typing import Any, Iterable, Iterator

__all__ = [
    "Atom",
    "Value",
    "Tup",
    "CVSet",
    "CVBag",
    "CVList",
    "tup",
    "cvset",
    "cvbag",
    "cvlist",
    "is_atom",
    "atoms_of",
    "value_depth",
    "map_atoms",
    "ValueError_",
]

Atom = int | bool | str | float
Value = Any  # Atom | Tup | CVSet | CVBag | CVList


class ValueError_(Exception):
    """Raised for ill-formed complex values."""


def is_atom(v: Value) -> bool:
    """True if ``v`` is an atomic (base-domain) value."""
    return isinstance(v, (bool, int, str, float))


class Tup:
    """An n-tuple (product value).

    Slotted like the other value classes, with its hash stored when it
    is built.  The hash is ``hash((items,))``; set layouts, and with
    them iteration orders and every search result, depend on that
    formula, so it must not change.  ``items`` is a read-only view of
    the components.
    """

    __slots__ = ("_items", "_hash")

    def __init__(self, items: Iterable[Value]) -> None:
        items = tuple(items)
        self._items = items
        self._hash = hash((items,))

    #: The components.  A C-level getter: the compiled engine reads
    #: ``t.items[i]`` once per row and column.
    items = property(operator.attrgetter("_items"))

    def __iter__(self) -> Iterator[Value]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Value:
        return self._items[index]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Tup:
            return self._items == other._items
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Tup, (self._items,))

    def __repr__(self) -> str:
        return "(" + ", ".join(repr(x) for x in self._items) + ")"

    def replace(self, index: int, value: Value) -> "Tup":
        """Return a copy with component ``index`` replaced by ``value``."""
        items = list(self._items)
        items[index] = value
        return Tup(items)

    def project(self, indices: Iterable[int]) -> "Tup":
        """Return the sub-tuple at ``indices`` (0-based)."""
        return Tup(self._items[i] for i in indices)


class CVSet:
    """A finite set value, frozenset-backed, hashable."""

    __slots__ = ("_items", "_hash")

    def __init__(self, items: Iterable[Value] = ()) -> None:
        self._items = frozenset(items)
        self._hash = hash((0x5E7, self._items))

    def __iter__(self) -> Iterator[Value]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, v: Value) -> bool:
        return v in self._items

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CVSet) and self._items == other._items

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (CVSet, (self._items,))

    def __repr__(self) -> str:
        if not self._items:
            return "{}"
        return "{" + ", ".join(repr(x) for x in sorted(self._items, key=repr)) + "}"

    # Set algebra — the substrate for the relational operators.
    def union(self, other: "CVSet") -> "CVSet":
        return CVSet(self._items | other._items)

    def intersection(self, other: "CVSet") -> "CVSet":
        return CVSet(self._items & other._items)

    def difference(self, other: "CVSet") -> "CVSet":
        return CVSet(self._items - other._items)

    def issubset(self, other: "CVSet") -> bool:
        return self._items <= other._items

    def add(self, v: Value) -> "CVSet":
        """Return a new set with ``v`` inserted."""
        return CVSet(self._items | {v})

    def frozen(self) -> frozenset:
        return self._items

    __or__ = union
    __and__ = intersection
    __sub__ = difference
    __le__ = issubset


class CVBag:
    """A finite bag (multiset) value, hashable."""

    __slots__ = ("_counts", "_dict", "_len", "_hash")

    def __init__(self, items: Iterable[Value] = ()) -> None:
        counts = Counter(items)
        self._dict = dict(counts)
        self._len = sum(counts.values())
        self._counts = frozenset(counts.items())
        self._hash = hash((0xBA9, self._counts))

    def __iter__(self) -> Iterator[Value]:
        for v, n in self._dict.items():
            for _ in range(n):
                yield v

    def __len__(self) -> int:
        return self._len

    def __contains__(self, v: Value) -> bool:
        return v in self._dict

    def count(self, v: Value) -> int:
        """Multiplicity of ``v`` in the bag — O(1) dict lookup."""
        return self._dict.get(v, 0)

    def support(self) -> frozenset:
        """The set of distinct elements."""
        return frozenset(self._dict)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CVBag) and self._counts == other._counts

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (CVBag, (tuple(self),))

    def __repr__(self) -> str:
        items = sorted(self, key=repr)
        return "{|" + ", ".join(repr(x) for x in items) + "|}"

    def union(self, other: "CVBag") -> "CVBag":
        """Additive bag union."""
        return CVBag(list(self) + list(other))


class CVList:
    """A finite list value, tuple-backed, hashable."""

    __slots__ = ("_items", "_hash")

    def __init__(self, items: Iterable[Value] = ()) -> None:
        self._items = tuple(items)
        self._hash = hash((0x115, self._items))

    def __iter__(self) -> Iterator[Value]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return CVList(self._items[index])
        return self._items[index]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CVList) and self._items == other._items

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (CVList, (self._items,))

    def __repr__(self) -> str:
        return "<" + ", ".join(repr(x) for x in self._items) + ">"

    def append(self, other: "CVList") -> "CVList":
        """List concatenation — the paper's ``#`` operation."""
        return CVList(self._items + other._items)

    def cons(self, v: Value) -> "CVList":
        """Return a new list with ``v`` prepended."""
        return CVList((v,) + self._items)

    def items(self) -> tuple[Value, ...]:
        return self._items


def tup(*items: Value) -> Tup:
    """Build a tuple value."""
    return Tup(items)


def cvset(*items: Value) -> CVSet:
    """Build a set value."""
    return CVSet(items)


def cvbag(*items: Value) -> CVBag:
    """Build a bag value."""
    return CVBag(items)


def cvlist(*items: Value) -> CVList:
    """Build a list value."""
    return CVList(items)


#: Memo for :func:`atoms_of` on container values.  Values are immutable
#: and hashable, so entries can never go stale; the table is cleared
#: wholesale when it grows past the cap (cheap, and correct).
_ATOMS_MEMO: dict = {}
_ATOMS_MEMO_MAX = 8192


def atoms_of(v: Value) -> frozenset:
    """All atoms occurring anywhere inside ``v`` (the active domain seed).

    Container results are memoized so repeated active-domain sweeps over
    large nested values (the invariance experiments re-walk the same
    instances thousands of times) are O(1) after the first visit.
    """
    if is_atom(v):
        return frozenset({v})
    cached = _ATOMS_MEMO.get(v)
    if cached is not None:
        return cached
    out: set = set()
    if isinstance(v, CVBag):
        items: Iterable[Value] = v.support()
    else:
        items = v
    for item in items:
        out |= atoms_of(item)
    result = frozenset(out)
    if len(_ATOMS_MEMO) >= _ATOMS_MEMO_MAX:
        _ATOMS_MEMO.clear()
    _ATOMS_MEMO[v] = result
    return result


def value_depth(v: Value) -> int:
    """Maximum bulk-constructor nesting depth of ``v``.

    Atoms and tuples of atoms have depth 0; ``{1}`` has depth 1;
    ``{{1}}`` depth 2, and so on.  Used by the nest-parity query of
    Proposition 4.16.
    """
    if is_atom(v):
        return 0
    if isinstance(v, Tup):
        return max((value_depth(item) for item in v), default=0)
    if isinstance(v, CVBag):
        inner = max((value_depth(item) for item in v.support()), default=0)
        return 1 + inner
    inner = max((value_depth(item) for item in v), default=0)
    return 1 + inner


def map_atoms(v: Value, f) -> Value:
    """Apply the atom-level function ``f`` at every leaf of ``v``.

    This is the extension of a *functional* base mapping to all complex
    values — ``map(f)`` iterated through every constructor.  For general
    (relational) mappings use :mod:`repro.mappings.extensions`.
    """
    if is_atom(v):
        return f(v)
    if isinstance(v, Tup):
        return Tup(map_atoms(item, f) for item in v)
    if isinstance(v, CVSet):
        return CVSet(map_atoms(item, f) for item in v)
    if isinstance(v, CVBag):
        return CVBag(map_atoms(item, f) for item in v)
    if isinstance(v, CVList):
        return CVList(map_atoms(item, f) for item in v)
    raise ValueError_(f"not a complex value: {v!r}")
