"""The inflationary fixpoint operation.

The abstract defers the fixpoint/while results to the full paper but
announces them ("In the full paper we present results about *fixpoint*
and *while* operations", Section 3.2).  We implement the standard
inflationary fixpoint so the experiments can probe its genericity
empirically: an inflationary fixpoint of a fully generic body stays
fully generic (closure under composition and union, Prop 3.1, applied
omega times on finite instances).
"""

from __future__ import annotations

from ..types.values import Value
from .query import Query

__all__ = ["inflationary_fixpoint", "transitive_closure"]

#: Safety bound — on finite instances every inflationary fixpoint
#: converges well before this.
_MAX_ITERATIONS = 10_000


def inflationary_fixpoint(body: Query, name: str | None = None) -> Query:
    """``fix R. R union body(R)`` — iterate until no new tuples appear."""

    def fn(r: Value) -> Value:
        current = r
        for _ in range(_MAX_ITERATIONS):
            step = body.fn(current)
            merged = current.union(step)
            if merged == current:
                return current
            current = merged
        raise RuntimeError(f"fixpoint of {body.name} did not converge")

    return Query(
        name=name or f"fix({body.name})",
        fn=fn,
        input_type=body.input_type,
        output_type=body.input_type,
        uses_equality=body.uses_equality,
        notes="inflationary fixpoint",
    )


def transitive_closure() -> Query:
    """Transitive closure of a binary relation via the inflationary
    fixpoint of ``R o R`` — the classical fixpoint query, equality-using
    through its join."""
    from .operators import self_compose

    body = self_compose()
    q = inflationary_fixpoint(body, name="tc")
    q.notes = "transitive closure = fix(R union R o R)"
    return q
