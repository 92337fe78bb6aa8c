"""Mapping constructors for function and quantified types (Section 4.1).

* :class:`FuncRel` realizes Definition 4.2: ``(K -> K')(f, f')`` iff
  whenever ``K(x, x')`` then ``K'(f(x), f'(x'))``.  Deciding this needs
  the pairs of ``K`` to be enumerable; a :class:`Budget` bounds the
  enumeration.
* :class:`ForAllRel` realizes Definition 4.3 *empirically*: two
  polymorphic values are related iff for every candidate mapping ``H``
  in a supplied test family, their components at the related types are
  related by ``T(H)``.  The universal quantifier over *all* mappings is
  approximated by this family — the standard move for executable
  parametricity checking (see DESIGN.md, substitutions).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..types.ast import ForAll, FuncType, Type
from .mapping import Budget, Rel

__all__ = ["FuncRel", "ForAllRel", "PolyValue"]


class FuncRel(Rel):
    """``K -> K'`` on functions (Definition 4.2).

    The related "functions" are Python callables taking and returning
    complex values.  With ``K = K'`` and ``f = f'`` this states that
    ``f`` is invariant under ``K`` (Definition 2.9) — the bridge the
    paper draws between genericity and parametricity.
    """

    def __init__(self, arg_rel: Rel, result_rel: Rel) -> None:
        self.arg_rel = arg_rel
        self.result_rel = result_rel
        self.source = FuncType(arg_rel.source, result_rel.source)
        self.target = FuncType(arg_rel.target, result_rel.target)

    def holds(self, f, g, budget: Optional[Budget] = None) -> bool:
        return self.witness_violation(f, g, budget) is None

    def witness_violation(self, f, g, budget: Optional[Budget] = None):
        """Return a counterexample pair ``(x, y)`` or ``None``."""
        for x, y in self.arg_rel.pairs(budget):
            try:
                fx, gy = f(x), g(y)
            except Exception:
                # A function undefined on a related input cannot be
                # certified related; treat as failure, mirroring the
                # paper's "legal inputs" proviso conservatively.
                return x, y
            if not self.result_rel.holds(fx, gy, budget):
                return x, y
        return None

    def pairs(self, budget: Optional[Budget] = None):
        """Enumerate related function pairs between the finite carriers.

        Needed when a function type occurs in argument position — e.g.
        the predicate argument of the paper's ``sigma``; delegated to
        :func:`repro.mappings.carriers.enumerate_pairs`.
        """
        from .carriers import enumerate_pairs

        return enumerate_pairs(self, budget)


class PolyValue:
    """A polymorphic value: a family of components indexed by types.

    Section 4.2's semantic domain interprets a polymorphic function as a
    collection of alpha-components ``f[alpha]``.  ``instantiate`` is a
    callable from a monomorphic :class:`Type` to the component value.
    """

    def __init__(self, instantiate: Callable[[Type], object], type_: Type) -> None:
        self.instantiate = instantiate
        self.type = type_

    def __getitem__(self, t: Type):
        return self.instantiate(t)

    def __repr__(self) -> str:
        return f"PolyValue({self.type})"


class ForAllRel(Rel):
    """``forall X. T(X)`` as a relation on polymorphic values (Def 4.3).

    ``candidates`` is the finite family of triples
    ``(alpha, beta, H : alpha x beta)`` over which the universal
    quantifier is tested; ``body_builder(H)`` must return the relation
    ``T(H)`` between ``T(alpha)`` and ``T(beta)``.
    """

    def __init__(
        self,
        type_: ForAll,
        candidates: Sequence[tuple[Type, Type, Rel]],
        body_builder: Callable[[Rel], Rel],
    ) -> None:
        self.source = type_
        self.target = type_
        self.candidates = list(candidates)
        self.body_builder = body_builder

    def holds(self, f, g, budget: Optional[Budget] = None) -> bool:
        return self.witness_violation(f, g, budget) is None

    def witness_violation(self, f, g, budget: Optional[Budget] = None):
        """Return a failing ``(alpha, beta, H)`` triple, or ``None``."""
        for alpha, beta, h in self.candidates:
            body = self.body_builder(h)
            f_alpha = f[alpha] if isinstance(f, PolyValue) else f
            g_beta = g[beta] if isinstance(g, PolyValue) else g
            if not body.holds(f_alpha, g_beta, budget):
                return alpha, beta, h
        return None
