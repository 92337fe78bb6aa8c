"""Fingerprints for relations and plans — the result-cache key.

A cached plan result may be reused only when (a) the plan is
*structurally identical*, (b) every named callable it carries
(``Select.predicate``, ``MapNode.fn``) has the same *semantics*, and
(c) every base relation it reads has the same contents.  All three
checks must be cheap:

* plans are frozen dataclasses whose equality/hash ignore the attached
  callables and compare by *name* (``Select.predicate_name``,
  ``MapNode.fn_name``), so a plan is its own structural key;
* structural identity alone is **not** sufficient for reuse: two plans
  may alias one ``predicate_name`` to different callables.  The old
  "standing invariant" (a name identifies its semantics within one
  cache's lifetime) was documented but unenforced, and a violation
  silently returned the *wrong answer* from a shared cache.  It is now
  enforced by machine: :func:`annotate_plan` assigns every subtree an
  interned **semantic token** that folds in a disambiguator for each
  named callable (see :func:`callable_identity`), and the cache keys on
  the token instead of the bare plan;
* :class:`~repro.types.values.CVSet` precomputes its hash at
  construction, so a relation fingerprint ``(cardinality, hash)`` is an
  O(1) lookup, not a rescan.
"""

from __future__ import annotations

from typing import Callable, Mapping as TMapping, Optional

from ...optimizer.plan import MapNode, Plan, Scan, Select
from ...types.values import CVSet

__all__ = [
    "relation_fingerprint",
    "callable_identity",
    "annotate_plan",
    "semantic_cache_key",
]

_EMPTY = CVSet()


def relation_fingerprint(relation: Optional[CVSet]) -> tuple[int, int]:
    """A cheap content fingerprint: ``(cardinality, precomputed hash)``.

    Missing relations fingerprint as the empty set, matching the
    executor's ``db.get(name, CVSet())`` semantics.
    """
    if relation is None:
        relation = _EMPTY
    return (len(relation), hash(relation))


_MAX_CLOSURE_DEPTH = 8


def callable_identity(fn: Callable, _depth: int = 0) -> object:
    """A hashable token that identifies a callable's semantics.

    Two callables with the same token are guaranteed to compute the
    same function (assuming no mutation of globals they read); distinct
    tokens make no claim either way, which errs on the side of cache
    misses, never wrong answers.

    For plain Python functions the token is ``(code object, closure
    values, defaults)``: re-creating a closure from the same source with
    equal captured values — e.g. the plan parser building ``lambda t:
    compare(t[column], literal)`` afresh per parse — yields the *same*
    token, so caches stay warm across re-parses.  Captured callables are
    resolved recursively (depth-bounded).  Anything else — builtins,
    callable objects, unhashable captures — falls back to the callable
    itself, i.e. identity semantics, with the returned token holding a
    strong reference so a freed callable's ``id`` can never be reused
    for a different one.

    Captured values can mutate between calls (a closure over a
    ``nonlocal`` counter, say), in which case re-deriving the token for
    the *same* function object yields a different answer.  Callers that
    need per-object stability memoize the first derivation — the
    :class:`~repro.engine.exec.cache.PlanCache` does.
    """
    code = getattr(fn, "__code__", None)
    if code is None or _depth >= _MAX_CLOSURE_DEPTH:
        return fn
    parts: list[object] = []
    for cell in getattr(fn, "__closure__", None) or ():
        try:
            value = cell.cell_contents
        except ValueError:  # still-empty cell
            return fn
        parts.append(_capture_token(value, _depth))
    defaults = getattr(fn, "__defaults__", None) or ()
    default_parts = tuple(_capture_token(v, _depth) for v in defaults)
    token = (code, tuple(parts), default_parts)
    try:
        hash(token)
    except TypeError:
        return fn
    return token


def _capture_token(value: object, depth: int) -> object:
    if callable(value):
        return callable_identity(value, depth + 1)
    return value


def annotate_plan(
    plan: Plan,
    intern_table: dict,
    tag: Callable[[str, Callable], object],
) -> dict[int, tuple[int, frozenset]]:
    """Assign every subtree a semantic token and its base-relation set.

    Returns ``id(node) -> (token, relations)`` for every node reachable
    from ``plan``.  Tokens are interned integers: two subtrees get the
    same token **iff** they are structurally equal *and* every named
    callable resolves to the same ``tag(name, fn)`` disambiguator.
    Interning makes token comparison exact (no hash-collision exposure)
    and O(1).

    ``intern_table`` carries the interning state; share one table (the
    :class:`~repro.engine.exec.cache.PlanCache` does) to make tokens
    comparable across calls.  The walk is an explicit-stack postorder —
    O(nodes) total, safe at any plan depth.
    """
    info: dict[int, tuple[int, frozenset]] = {}
    stack: list[tuple[Plan, bool]] = [(plan, False)]
    while stack:
        node, ready = stack.pop()
        node_id = id(node)
        if node_id in info:
            continue
        if not ready:
            stack.append((node, True))
            for child in node.children():
                if id(child) not in info:
                    stack.append((child, False))
            continue
        children = node.children()
        child_info = tuple(info[id(c)] for c in children)
        if isinstance(node, Scan):
            relations: frozenset = frozenset((node.relation,))
        elif len(child_info) == 1:
            relations = child_info[0][1]
        elif child_info:
            relations = frozenset().union(*(ci[1] for ci in child_info))
        else:
            relations = frozenset()
        if isinstance(node, Select):
            semantics: object = tag(node.predicate_name, node.predicate)
        elif isinstance(node, MapNode):
            semantics = tag(node.fn_name, node.fn)
        else:
            semantics = None
        key = (
            type(node).__name__,
            node._scalar_key(),
            semantics,
            tuple(ci[0] for ci in child_info),
        )
        token = intern_table.get(key)
        if token is None:
            token = len(intern_table)
            intern_table[key] = token
        info[node_id] = (token, relations)
    return info


def semantic_cache_key(
    token: int, relations: frozenset, db: TMapping[str, CVSet]
) -> tuple[int, tuple[tuple[str, tuple[int, int]], ...]]:
    """The cache key actually stored: a plan's semantic token plus the
    fingerprints of every base relation it reads, in sorted order."""
    return (
        token,
        tuple(
            (name, relation_fingerprint(db.get(name)))
            for name in sorted(relations)
        ),
    )
