"""Boehm-Berarducci (Church) encodings of lists in *pure* System F.

The paper notes that "the 2nd-order calculus ... can express lists, but
not sets" (Section 4.2).  The prelude makes lists primitive for
convenience; this module backs the claim up by *deriving* lists inside
the pure calculus:

    ChurchList X  =  forall R. (X -> R -> R) -> R -> R

with ``nil``, ``cons`` and ``append`` definable as pure terms —
type-checked against their declared polymorphic types — and
round-tripping conversions to the native list values, so the encodings
can be tested against the prelude implementations.  ``foldr`` needs no
term of its own: folding a Church list is type application.
"""

from __future__ import annotations


from ..types.ast import Type, TypeVar, forall, func
from ..types.values import CVList
from .eval import evaluate
from .syntax import Term, Var, app, lam, tapp, tlam
from .typecheck import check_term

__all__ = [
    "church_list_type",
    "church_nil",
    "church_cons",
    "church_append",
    "encode_list",
    "decode_list",
    "church_prelude_terms",
]

_X = TypeVar("X")
_R = TypeVar("R")


def church_list_type(element: Type) -> Type:
    """``forall R. (element -> R -> R) -> R -> R``."""
    return forall("R", func(func(element, _R, _R), _R, _R))


def church_nil() -> Term:
    """``/\\X. /\\R. \\c. \\n. n : forall X. ChurchList X``."""
    return tlam(
        "X",
        tlam(
            "R",
            lam("c", func(_X, _R, _R), lam("n", _R, Var("n"))),
        ),
    )


def church_cons() -> Term:
    """``/\\X. \\h. \\t. /\\R. \\c. \\n. c h (t[R] c n)``."""
    t_list = church_list_type(_X)
    body = tlam(
        "R",
        lam(
            "c",
            func(_X, _R, _R),
            lam(
                "n",
                _R,
                app(
                    Var("c"),
                    Var("h"),
                    app(tapp(Var("t"), _R), Var("c"), Var("n")),
                ),
            ),
        ),
    )
    return tlam("X", lam("h", _X, lam("t", t_list, body)))


def church_append() -> Term:
    """``/\\X. \\l1. \\l2. /\\R. \\c. \\n. l1[R] c (l2[R] c n)``.

    The paper's ``#`` as a pure term: fold the first list with cons over
    the second."""
    t_list = church_list_type(_X)
    body = tlam(
        "R",
        lam(
            "c",
            func(_X, _R, _R),
            lam(
                "n",
                _R,
                app(
                    tapp(Var("l1"), _R),
                    Var("c"),
                    app(tapp(Var("l2"), _R), Var("c"), Var("n")),
                ),
            ),
        ),
    )
    return tlam("X", lam("l1", t_list, lam("l2", t_list, body)))


def church_prelude_terms() -> dict[str, tuple[Term, Type]]:
    """The pure-calculus list library with declared, checked types."""
    entries = {
        "c_nil": (church_nil(), forall("X", church_list_type(_X))),
        "c_cons": (
            church_cons(),
            forall("X", func(_X, church_list_type(_X), church_list_type(_X))),
        ),
        "c_append": (
            church_append(),
            forall(
                "X",
                func(
                    church_list_type(_X),
                    church_list_type(_X),
                    church_list_type(_X),
                ),
            ),
        ),
    }
    for name, (term, declared) in entries.items():
        check_term(term, declared)
    return entries


def encode_list(values: CVList, element: Type) -> object:
    """Encode a native list as an (evaluated) Church list at ``element``."""
    entries = church_prelude_terms()
    constants = {name: evaluate(term) for name, (term, _t) in entries.items()}
    out = constants["c_nil"][element]
    cons = constants["c_cons"][element]
    for item in reversed(list(values)):
        out = cons(item)(out)
    return out


def decode_list(church_value: object, element: Type) -> CVList:
    """Decode an evaluated Church list back to a native list.

    Instantiates the encoding at the native list type and folds with the
    native constructors."""
    from ..mappings.function_maps import PolyValue
    from ..types.ast import ListType

    if isinstance(church_value, PolyValue):
        component = church_value.instantiate(ListType(element))
    else:
        component = church_value

    def native_cons(head):
        return lambda tail: tail.cons(head)

    return component(native_cons)(CVList())
