"""Rule-driven plan rewriter with equivalence verification.

The rewriter applies rules in one bottom-up pass; a fired rule
revisits only the nodes it built.  It keeps a trace of which rules fired
where — the trace is how the experiments connect each rewrite back to
its genericity / parametricity justification.

A rule's side condition reads declared keys and genericity classes,
never the data, so a plan's normal form and trace are fixed until the
plan or the catalog changes.  The catalog remembers them per plan
object: a query workload that optimizes the same plan objects again
and again rewrites each once (see :meth:`Rewriter.optimize`).

Because the rules' side conditions are discharged from *declared*
constraints, :func:`verify_equivalence` re-checks every rewritten plan
against the original on generated databases; the Section 4.4 experiment
also runs the unsound variant (projection through difference *without*
the key) to show the verifier catching it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping as TMapping, Optional, Sequence

from ..types.values import CVSet
from .constraints import Catalog
from .plan import Plan, execute_reference
from .rules import DEFAULT_RULES, RewriteRule

__all__ = ["RewriteTrace", "Rewriter", "verify_equivalence"]


@dataclass
class RewriteTrace:
    """A record of one applied rewrite."""

    rule: RewriteRule
    before: Plan
    after: Plan

    def __str__(self) -> str:
        return f"{self.rule.name}: {self.before}  =>  {self.after}"


@dataclass
class Rewriter:
    """Applies a rule set in one bottom-up pass; a fired rule revisits
    only the nodes it built."""

    catalog: Catalog
    rules: Sequence[RewriteRule] = DEFAULT_RULES
    trace: list[RewriteTrace] = field(default_factory=list)

    # Work-item tags for the explicit-stack traversal below.
    _VISIT, _COMBINE, _APPLY = 0, 1, 2

    def _rewrite_node(self, plan: Plan) -> Plan:
        """Bottom-up rewrite of one tree, without recursion.

        Rewrite the children, recombine, then apply rules at the node
        until none fires.  A node on which no rule fires is in normal
        form, and so is every node below it; ``normal`` remembers those
        nodes by identity (holding them keeps their ids valid).  When a
        rule fires, its result is visited again, but the subtrees it
        reuses are already normal and go straight to ``results``: only
        the nodes the rule built run the rule loop.  A rule sees only
        the subtree it is applied to, so a rewrite above a normal subtree
        cannot create a new rewrite inside it, and the single pass ends
        at a fixpoint.  An explicit stack keeps plans of arbitrary depth
        safe from ``RecursionError``.
        """
        stack: list[tuple[int, Plan]] = [(self._VISIT, plan)]
        results: list[Plan] = []
        normal: dict[int, Plan] = {}
        while stack:
            action, node = stack.pop()
            if action == self._VISIT:
                if id(node) in normal:
                    results.append(node)
                    continue
                children = node.children()
                if children:
                    stack.append((self._COMBINE, node))
                    for child in reversed(children):
                        stack.append((self._VISIT, child))
                else:
                    stack.append((self._APPLY, node))
            elif action == self._COMBINE:
                n = len(node.children())
                children = tuple(results[-n:])
                del results[-n:]
                stack.append((self._APPLY, node.with_children(children)))
            else:  # _APPLY: run the rule loop at a recombined node
                for rule in self.rules:
                    result = rule.apply(node, self.catalog)
                    if result is not None and result != node:
                        self.trace.append(RewriteTrace(rule, node, result))
                        stack.append((self._VISIT, result))
                        break
                else:
                    normal[id(node)] = node
                    results.append(node)
        return results.pop()

    def optimize(self, plan: Plan) -> Plan:
        """Rewrite ``plan`` to normal form; the trace records each step.

        The normal form depends only on the plan, the rules and the
        catalog's declared keys, so the catalog remembers it (see
        :class:`~repro.optimizer.constraints.Catalog`): optimizing the
        same plan object again under the same ``rules`` object returns
        the same normal-form object and a fresh list of the first call's
        ``RewriteTrace``s, without running a rule, until
        :meth:`Catalog.add <repro.optimizer.constraints.Catalog.add>`
        declares another relation."""
        remembered = self.catalog.rewrite_of(plan, self.rules)
        if remembered is not None:
            normal, trace = remembered
            self.trace = list(trace)
            return normal
        self.trace = []
        normal = self._rewrite_node(plan)
        self.catalog.remember_rewrite(
            plan, self.rules, normal, tuple(self.trace)
        )
        return normal

    def explain(self) -> list[str]:
        """Human-readable audit of the applied rewrites with their
        paper justifications."""
        return [
            f"{t.rule.name} [{t.rule.justification}]" for t in self.trace
        ]


def verify_equivalence(
    original: Plan,
    rewritten: Plan,
    databases: Sequence[TMapping[str, CVSet]],
) -> Optional[TMapping[str, CVSet]]:
    """Check both plans agree on every database; return the first
    disagreeing database (a counterexample) or ``None``.

    Runs on the reference interpreter, the engine's oracle.
    """
    for db in databases:
        original_value = execute_reference(original, db).value
        rewritten_value = execute_reference(rewritten, db).value
        if original_value != rewritten_value:
            return db
    return None
