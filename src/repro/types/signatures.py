"""Signatures: base types with interpreted functions and predicates.

Section 2 assumes databases are defined over a signature Sigma — a
collection of base types with interpreted functions and predicates,
always containing ``bool``.  Genericity w.r.t. second-order constants
(Section 2.5) quantifies over mappings that *preserve* some of these
interpreted symbols, so the signature is a first-class runtime object
here: it carries callables alongside their declared types.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from .ast import BOOL, FLOAT, INT, STR, BaseType, FuncType, Type, TypeError_
from .values import Value

__all__ = [
    "Interpreted",
    "Signature",
    "standard_signature",
]


@dataclass(frozen=True)
class Interpreted:
    """An interpreted function or predicate of the signature.

    ``arg_types``/``result_type`` give its declared (first-order) type;
    ``fn`` is the Python implementation.  A predicate is simply an
    interpreted symbol whose result type is ``bool``.
    """

    name: str
    arg_types: tuple[Type, ...]
    result_type: Type
    fn: Callable[..., Value]

    @property
    def is_predicate(self) -> bool:
        return self.result_type == BOOL

    @property
    def arity(self) -> int:
        return len(self.arg_types)

    @property
    def type(self) -> Type:
        """The symbol's type as a (curried) function type."""
        out: Type = self.result_type
        for t in reversed(self.arg_types):
            out = FuncType(t, out)
        return out

    def __call__(self, *args: Value) -> Value:
        if len(args) != self.arity:
            raise TypeError_(
                f"{self.name} expects {self.arity} arguments, got {len(args)}"
            )
        return self.fn(*args)


@dataclass
class Signature:
    """A collection of base types plus their interpreted symbols."""

    base_types: dict[str, BaseType] = field(default_factory=dict)
    symbols: dict[str, Interpreted] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # The paper requires Sigma to contain bool.
        self.base_types.setdefault("bool", BOOL)

    def add_symbol(
        self,
        name: str,
        arg_types: Iterable[Type],
        result_type: Type,
        fn: Callable[..., Value],
    ) -> Interpreted:
        """Declare an interpreted function or predicate."""
        symbol = Interpreted(name, tuple(arg_types), result_type, fn)
        self.symbols[name] = symbol
        return symbol

    def __getitem__(self, name: str) -> Interpreted:
        return self.symbols[name]

    def __contains__(self, name: str) -> bool:
        return name in self.symbols

    def functions(self) -> list[Interpreted]:
        """All non-predicate symbols."""
        return [s for s in self.symbols.values() if not s.is_predicate]

    def predicates(self) -> list[Interpreted]:
        """All predicate symbols."""
        return [s for s in self.symbols.values() if s.is_predicate]


def standard_signature() -> Signature:
    """The usual database signature: int, str, float, bool with
    arithmetic, comparisons and equality per base type."""
    sig = Signature()
    for t in (INT, STR, FLOAT, BOOL):
        sig.base_types[t.name] = t

    sig.add_symbol("succ", (INT,), INT, lambda x: x + 1)
    sig.add_symbol("plus", (INT, INT), INT, lambda x, y: x + y)
    sig.add_symbol("times", (INT, INT), INT, lambda x, y: x * y)
    sig.add_symbol("neg", (INT,), INT, lambda x: -x)
    sig.add_symbol("eq_int", (INT, INT), BOOL, lambda x, y: x == y)
    sig.add_symbol("lt", (INT, INT), BOOL, lambda x, y: x < y)
    sig.add_symbol("gt", (INT, INT), BOOL, lambda x, y: x > y)
    sig.add_symbol("even", (INT,), BOOL, lambda x: x % 2 == 0)
    sig.add_symbol("eq_str", (STR, STR), BOOL, lambda x, y: x == y)
    sig.add_symbol("concat", (STR, STR), STR, lambda x, y: x + y)
    sig.add_symbol("not", (BOOL,), BOOL, lambda x: not x)
    sig.add_symbol("and", (BOOL, BOOL), BOOL, lambda x, y: x and y)
    sig.add_symbol("or", (BOOL, BOOL), BOOL, lambda x, y: x or y)
    return sig
