"""Complex-value and 2nd-order type ASTs.

This module implements the type languages of the paper:

* **Definition 2.1** — complex value types over a signature: trees whose
  leaves are base types and whose internal nodes are the constructors
  ``x`` (product), ``{}`` (set), ``{||}`` (bag) and ``<>`` (list).
* **Definition 2.7** — type *expressions*: the same trees but with type
  variables at (some of) the leaves, together with substitution.
* **Definition 4.1** — 2nd-order types: the constructors above extended
  with ``->`` (function space) and ``forall X.`` (universal
  quantification), as in System F.

Types are immutable, hashable, and compared structurally (up to alpha
renaming for quantified types, see :func:`alpha_equal`).

The paper also uses *eq-variables* ``X=`` that range only over types
carrying an equality predicate (Section 4.1, list difference).  A
:class:`TypeVar` or :class:`ForAll` can be flagged ``requires_eq`` to
model this.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping

__all__ = [
    "Type",
    "BaseType",
    "TypeVar",
    "Product",
    "SetType",
    "BagType",
    "ListType",
    "FuncType",
    "ForAll",
    "INT",
    "BOOL",
    "STR",
    "FLOAT",
    "UNIT",
    "product",
    "set_of",
    "bag_of",
    "list_of",
    "func",
    "forall",
    "tvar",
    "free_type_vars",
    "substitute",
    "alpha_equal",
    "contains_constructor",
    "strip_foralls",
    "rename_bound",
    "subtypes",
    "TypeError_",
]


class TypeError_(Exception):
    """Raised for ill-formed types or illegal type operations.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


@dataclass(frozen=True)
class Type:
    """Abstract base class of all type nodes."""

    def __str__(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError

    # Convenience constructors so types compose fluently:
    #   INT * STR        -> Product((INT, STR))
    #   INT >> BOOL      -> FuncType(INT, BOOL)
    def __mul__(self, other: "Type") -> "Product":
        left = self.components if isinstance(self, Product) else (self,)
        right = other.components if isinstance(other, Product) else (other,)
        return Product(left + right)

    def __rshift__(self, other: "Type") -> "FuncType":
        return FuncType(self, other)


@dataclass(frozen=True)
class BaseType(Type):
    """An uninterpreted-or-interpreted base type ``d`` of the signature."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class TypeVar(Type):
    """A type variable ``X``; ``requires_eq`` marks the paper's ``X=``."""

    name: str
    requires_eq: bool = False

    def __str__(self) -> str:
        return self.name + ("=" if self.requires_eq else "")


@dataclass(frozen=True)
class Product(Type):
    """Product (tuple) type ``t1 x ... x tn``."""

    components: tuple[Type, ...]

    def __post_init__(self) -> None:
        if not all(isinstance(c, Type) for c in self.components):
            raise TypeError_(f"non-type component in product: {self.components!r}")

    @property
    def arity(self) -> int:
        return len(self.components)

    def __str__(self) -> str:
        if not self.components:
            return "unit"
        parts = []
        for c in self.components:
            text = str(c)
            if isinstance(c, (Product, FuncType, ForAll)):
                text = f"({text})"
            parts.append(text)
        return " * ".join(parts)


@dataclass(frozen=True)
class SetType(Type):
    """Finite-set type ``{t}``."""

    element: Type

    def __str__(self) -> str:
        return "{" + str(self.element) + "}"


@dataclass(frozen=True)
class BagType(Type):
    """Bag (multiset) type ``{|t|}``."""

    element: Type

    def __str__(self) -> str:
        return "{|" + str(self.element) + "|}"


@dataclass(frozen=True)
class ListType(Type):
    """List type ``<t>``."""

    element: Type

    def __str__(self) -> str:
        return "<" + str(self.element) + ">"


@dataclass(frozen=True)
class FuncType(Type):
    """Function type ``s -> t`` (Section 4)."""

    arg: Type
    result: Type

    def __str__(self) -> str:
        arg_text = str(self.arg)
        if isinstance(self.arg, (FuncType, ForAll)):
            arg_text = f"({arg_text})"
        return f"{arg_text} -> {self.result}"


@dataclass(frozen=True)
class ForAll(Type):
    """Universally quantified type ``forall X. T`` (Section 4).

    ``requires_eq`` models quantification over eq-types, ``forall X=. T``.
    """

    var: str
    body: Type
    requires_eq: bool = False

    def __str__(self) -> str:
        eq = "=" if self.requires_eq else ""
        return f"forall {self.var}{eq}. {self.body}"


# ---------------------------------------------------------------------------
# Canonical base types.  ``bool`` is required by the paper's signatures
# (Section 2); the others are the usual database base domains.
# ---------------------------------------------------------------------------

INT = BaseType("int")
BOOL = BaseType("bool")
STR = BaseType("str")
FLOAT = BaseType("float")
UNIT = Product(())


# ---------------------------------------------------------------------------
# Fluent constructors.
# ---------------------------------------------------------------------------

def product(*components: Type) -> Product:
    """Build a product type from ``components``."""
    return Product(tuple(components))


def set_of(element: Type) -> SetType:
    """Build the set type ``{element}``."""
    return SetType(element)


def bag_of(element: Type) -> BagType:
    """Build the bag type ``{|element|}``."""
    return BagType(element)


def list_of(element: Type) -> ListType:
    """Build the list type ``<element>``."""
    return ListType(element)


def func(arg: Type, result: Type, *more: Type) -> FuncType:
    """Build a (curried) function type ``arg -> result -> ...``."""
    types = (arg, result, *more)
    out = types[-1]
    for t in reversed(types[:-1]):
        out = FuncType(t, out)
    return out  # type: ignore[return-value]


def forall(var: str, body: Type, requires_eq: bool = False) -> ForAll:
    """Build ``forall var. body``."""
    return ForAll(var, body, requires_eq)


def tvar(name: str, requires_eq: bool = False) -> TypeVar:
    """Build a type variable."""
    return TypeVar(name, requires_eq)


# ---------------------------------------------------------------------------
# Structural operations.
# ---------------------------------------------------------------------------

def free_type_vars(t: Type) -> frozenset[str]:
    """Return the names of the type variables occurring free in ``t``."""
    if isinstance(t, TypeVar):
        return frozenset({t.name})
    if isinstance(t, BaseType):
        return frozenset()
    if isinstance(t, Product):
        out: frozenset[str] = frozenset()
        for c in t.components:
            out |= free_type_vars(c)
        return out
    if isinstance(t, (SetType, BagType, ListType)):
        return free_type_vars(t.element)
    if isinstance(t, FuncType):
        return free_type_vars(t.arg) | free_type_vars(t.result)
    if isinstance(t, ForAll):
        return free_type_vars(t.body) - {t.var}
    raise TypeError_(f"unknown type node: {t!r}")


def _fresh_name(base: str, avoid: frozenset[str]) -> str:
    if base not in avoid:
        return base
    for i in itertools.count(1):
        candidate = f"{base}_{i}"
        if candidate not in avoid:
            return candidate
    raise AssertionError("unreachable")


def substitute(t: Type, subst: Mapping[str, Type]) -> Type:
    """Capture-avoiding substitution of type variables in ``t``.

    ``T(tau1/X1, ..., taun/Xn)`` of Definition 2.7.
    """
    if isinstance(t, TypeVar):
        return subst.get(t.name, t)
    if isinstance(t, BaseType):
        return t
    if isinstance(t, Product):
        return Product(tuple(substitute(c, subst) for c in t.components))
    if isinstance(t, SetType):
        return SetType(substitute(t.element, subst))
    if isinstance(t, BagType):
        return BagType(substitute(t.element, subst))
    if isinstance(t, ListType):
        return ListType(substitute(t.element, subst))
    if isinstance(t, FuncType):
        return FuncType(substitute(t.arg, subst), substitute(t.result, subst))
    if isinstance(t, ForAll):
        inner = {k: v for k, v in subst.items() if k != t.var}
        if not inner:
            return t
        # Avoid capturing free variables of the substituted types.
        incoming: frozenset[str] = frozenset()
        for v in inner.values():
            incoming |= free_type_vars(v)
        var = t.var
        body = t.body
        if var in incoming:
            var = _fresh_name(var, incoming | free_type_vars(body))
            body = substitute(body, {t.var: TypeVar(var, t.requires_eq)})
        return ForAll(var, substitute(body, inner), t.requires_eq)
    raise TypeError_(f"unknown type node: {t!r}")


def rename_bound(t: Type, prefix: str = "X") -> Type:
    """Return an alpha-variant of ``t`` with canonically named binders.

    Useful for normalizing quantified types before comparison.
    """
    counter = itertools.count()

    def walk(node: Type, env: Mapping[str, str]) -> Type:
        if isinstance(node, TypeVar):
            return TypeVar(env.get(node.name, node.name), node.requires_eq)
        if isinstance(node, BaseType):
            return node
        if isinstance(node, Product):
            return Product(tuple(walk(c, env) for c in node.components))
        if isinstance(node, SetType):
            return SetType(walk(node.element, env))
        if isinstance(node, BagType):
            return BagType(walk(node.element, env))
        if isinstance(node, ListType):
            return ListType(walk(node.element, env))
        if isinstance(node, FuncType):
            return FuncType(walk(node.arg, env), walk(node.result, env))
        if isinstance(node, ForAll):
            fresh = f"{prefix}{next(counter)}"
            new_env = dict(env)
            new_env[node.var] = fresh
            return ForAll(fresh, walk(node.body, new_env), node.requires_eq)
        raise TypeError_(f"unknown type node: {node!r}")

    return walk(t, {})


def alpha_equal(a: Type, b: Type) -> bool:
    """Structural equality up to renaming of bound type variables."""
    return rename_bound(a) == rename_bound(b)


def contains_constructor(t: Type, constructor: type) -> bool:
    """True if any node of ``t`` is an instance of ``constructor``."""
    return any(isinstance(node, constructor) for node in subtypes(t))


def subtypes(t: Type) -> Iterator[Type]:
    """Yield every node of the type tree ``t`` (pre-order)."""
    yield t
    if isinstance(t, Product):
        for c in t.components:
            yield from subtypes(c)
    elif isinstance(t, (SetType, BagType, ListType)):
        yield from subtypes(t.element)
    elif isinstance(t, FuncType):
        yield from subtypes(t.arg)
        yield from subtypes(t.result)
    elif isinstance(t, ForAll):
        yield from subtypes(t.body)


def strip_foralls(t: Type) -> tuple[tuple[tuple[str, bool], ...], Type]:
    """Split ``forall X1. ... forall Xn. T`` into binders and body.

    Returns ``(((name, requires_eq), ...), body)``.  The paper restricts
    quantifiers to the outside of a type (Section 4.2); this helper
    recovers that prefix form.
    """
    binders: list[tuple[str, bool]] = []
    while isinstance(t, ForAll):
        binders.append((t.var, t.requires_eq))
        t = t.body
    return tuple(binders), t
