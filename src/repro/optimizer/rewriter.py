"""Rule-driven plan rewriter with equivalence verification.

The rewriter applies rules bottom-up to a fixpoint (with a safety
bound), keeping a trace of which rules fired where — the trace is how
the experiments connect each rewrite back to its genericity /
parametricity justification.

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

_MAX_PASSES = 32


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
    """Applies a rule set bottom-up to a fixpoint."""

    catalog: Catalog
    rules: Sequence[RewriteRule] = DEFAULT_RULES
    trace: list[RewriteTrace] = field(default_factory=list)

    # Work-item tags for the explicit-stack traversal below.
    _VISIT, _COMBINE, _APPLY = 0, 1, 2

    def _rewrite_node(self, plan: Plan) -> Plan:
        """Bottom-up rewrite of one tree, without recursion.

        Equivalent to the old recursive form: rewrite the children,
        recombine, then apply rules at the node until none fires; when a
        rule fires, the rewritten node's children are themselves
        rewritten (they may expose new opportunities) before the rule
        loop restarts at the recombined node.  An explicit stack keeps
        plans of arbitrary depth safe from ``RecursionError``.
        """
        stack: list[tuple[int, Plan]] = [(self._VISIT, plan)]
        results: list[Plan] = []
        while stack:
            action, node = stack.pop()
            if action == self._VISIT:
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
                fired = False
                for rule in self.rules:
                    result = rule.apply(node, self.catalog)
                    if result is not None and result != node:
                        self.trace.append(RewriteTrace(rule, node, result))
                        # Rewritten node may expose new opportunities
                        # below: rewrite its children, then re-enter the
                        # rule loop on the recombined node.
                        children = result.children()
                        if children:
                            stack.append((self._COMBINE, result))
                            for child in reversed(children):
                                stack.append((self._VISIT, child))
                        else:
                            stack.append((self._APPLY, result))
                        fired = True
                        break
                if not fired:
                    results.append(node)
        return results.pop()

    def optimize(self, plan: Plan) -> Plan:
        """Rewrite ``plan`` to a fixpoint; the trace records each step."""
        self.trace = []
        current = plan
        for _ in range(_MAX_PASSES):
            before = len(self.trace)
            current = self._rewrite_node(current)
            if len(self.trace) == before:
                return current
        return current

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
