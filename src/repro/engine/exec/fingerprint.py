"""Fingerprints for relations and plans — the result-cache key.

A cached plan result may be reused only when (a) the plan is
*structurally identical*, (b) every callable it carries
(``Select.predicate``, ``MapNode.fn``) is the *same object*, and (c)
every base relation it reads has the same contents.  All three checks
must be cheap:

* plans are frozen dataclasses whose equality/hash ignore the attached
  callables and compare by *name* (``Select.predicate_name``,
  ``MapNode.fn_name``), so a plan is its own structural key;
* structural identity alone is **not** sufficient for reuse: two plans
  may bind one ``predicate_name`` to different callables, and a cache
  keyed on the bare plan would return the first one's answer for
  both.  :func:`annotate_plan` therefore assigns every subtree an
  interned **semantic token** that folds in the callable object
  itself.  A callable is compared like any dict key: a function equals
  only itself, and two bound methods are equal only when they share an
  instance and a function.  The engine knows nothing about what a
  callable computes, so it never guesses that two distinct objects
  agree; a re-created closure keys apart and costs a miss, never a
  wrong answer;
* :class:`~repro.types.values.CVSet` precomputes its hash at
  construction, so a relation fingerprint ``(cardinality, hash)`` is an
  O(1) lookup, not a rescan.
"""

from __future__ import annotations

from typing import Mapping as TMapping, Optional

from ...optimizer.plan import MapNode, Plan, Scan, Select
from ...types.values import CVSet

__all__ = [
    "relation_fingerprint",
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


def annotate_plan(
    plan: Plan, intern_table: dict
) -> dict[int, tuple[int, frozenset]]:
    """Assign every subtree a semantic token and its base-relation set.

    Returns ``id(node) -> (token, relations)`` for every node reachable
    from ``plan``.  Tokens are interned integers: two subtrees get the
    same token **iff** they are structurally equal *and* their
    callables are equal objects.  Interning makes token comparison
    exact (no hash-collision exposure) and O(1); the intern table holds
    each callable, so its ``id`` is never reused while the token lives.

    Every ``Select.predicate`` and ``MapNode.fn`` must therefore be
    hashable: an unhashable one (a non-frozen ``@dataclass`` with
    ``__call__``) raises ``TypeError`` here, so in every
    ``Database.run`` and ``execute_compiled``; only the reference
    interpreter, which annotates nothing, accepts it.

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
            semantics: object = node.predicate
        elif isinstance(node, MapNode):
            semantics = node.fn
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
