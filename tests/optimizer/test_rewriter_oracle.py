"""The one-pass rewriter against the multi-pass loop it replaced.

``oracle_optimize`` is the earlier rewriter, kept here as the oracle:
after every rule that fires it rewrites the whole subtree below the
result again, and it repeats whole passes until one fires nothing.
``Rewriter.optimize`` must reach the same final plan through the same
trace, while running the rule loop once per input node plus once per
node a fired rule built.  Every case is optimized twice through one
catalog: the second call is answered from the catalog's memo and must
return the first call's normal-form object and still match the oracle.
"""

import random

import pytest

from repro.engine.workload import deep_chain_plan, hr_database, random_plan
from repro.optimizer.constraints import Catalog
from repro.optimizer.rewriter import Rewriter, RewriteTrace
from repro.optimizer.rules import DEFAULT_RULES, RewriteRule
from tests.conftest import hr_plans

#: A second, smaller rule set: the rules of ``DEFAULT_RULES`` named for
#: union ("union-only").
UNION_RULES = tuple(r for r in DEFAULT_RULES if "union" in r.name)

_MAX_PASSES = 32
_VISIT, _COMBINE, _APPLY = 0, 1, 2


def _oracle_pass(plan, catalog, rules, trace):
    """One bottom-up pass that re-descends the whole result of every
    fired rule before re-entering the rule loop on it."""
    stack = [(_VISIT, plan)]
    results = []
    while stack:
        action, node = stack.pop()
        if action == _VISIT:
            children = node.children()
            if children:
                stack.append((_COMBINE, node))
                for child in reversed(children):
                    stack.append((_VISIT, child))
            else:
                stack.append((_APPLY, node))
        elif action == _COMBINE:
            n = len(node.children())
            children = tuple(results[-n:])
            del results[-n:]
            stack.append((_APPLY, node.with_children(children)))
        else:
            fired = False
            for rule in rules:
                result = rule.apply(node, catalog)
                if result is not None and result != node:
                    trace.append(RewriteTrace(rule, node, result))
                    children = result.children()
                    if children:
                        stack.append((_COMBINE, result))
                        for child in reversed(children):
                            stack.append((_VISIT, child))
                    else:
                        stack.append((_APPLY, result))
                    fired = True
                    break
            if not fired:
                results.append(node)
    return results.pop()


def oracle_optimize(plan, catalog, rules=DEFAULT_RULES):
    """Passes of :func:`_oracle_pass` until one fires no rule."""
    trace: list[RewriteTrace] = []
    current = plan
    for _ in range(_MAX_PASSES):
        before = len(trace)
        current = _oracle_pass(current, catalog, rules, trace)
        if len(trace) == before:
            break
    return current, trace


def _steps(trace):
    return [(t.rule.name, t.before, t.after) for t in trace]


def assert_matches_oracle(plan, catalog, rules=DEFAULT_RULES):
    """Same final plan and trace as the oracle, on a first call and on
    a second that the catalog remembers (the same normal-form object;
    the rewriter rebuilds every inner node, so a fresh rewrite of a plan
    with children is a new object); returns the fire count."""
    want_plan, want_trace = oracle_optimize(plan, catalog, rules)
    normals = []
    for _ in range(2):
        rewriter = Rewriter(catalog, rules=rules)
        normals.append(rewriter.optimize(plan))
        assert normals[-1] == want_plan
        assert _steps(rewriter.trace) == _steps(want_trace)
    assert normals[1] is normals[0]
    return len(want_trace)


def counting(rules):
    """Copies of ``rules`` whose ``apply`` calls are tallied by name."""
    calls = dict.fromkeys((r.name for r in rules), 0)

    def wrap(rule):
        def apply(plan, catalog):
            calls[rule.name] += 1
            return rule.apply(plan, catalog)

        return RewriteRule(rule.name, rule.justification, apply)

    return tuple(wrap(r) for r in rules), calls


def _nodes(plan, stop=frozenset()):
    """Node occurrences of ``plan``, not descending into ids in ``stop``."""
    out, stack = [], [plan]
    while stack:
        node = stack.pop()
        if id(node) in stop:
            continue
        out.append(node)
        stack.extend(node.children())
    return out


def _hr_catalog():
    return hr_database(random.Random(0), employees=6, students=4,
                       overlap=2).catalog


def _rst_plans(seeds=range(60)):
    for depth in range(1, 8):
        for seed in seeds:
            yield random_plan(random.Random(seed * 8 + depth),
                              ("r", "s", "t"), depth=depth)


class TestAgainstOracle:
    @pytest.mark.parametrize("rules", [DEFAULT_RULES, UNION_RULES],
                             ids=["default", "union-only"])
    def test_random_plans_on_hr_catalog(self, rules):
        catalog = _hr_catalog()
        fires = [assert_matches_oracle(p, catalog, rules)
                 for p in hr_plans(range(400))]
        assert sum(f >= 2 for f in fires) >= 50

    @pytest.mark.parametrize("rules", [DEFAULT_RULES, UNION_RULES],
                             ids=["default", "union-only"])
    def test_random_plans_on_empty_catalog(self, rules):
        fires = [assert_matches_oracle(p, Catalog(), rules)
                 for p in _rst_plans()]
        assert sum(f >= 2 for f in fires) >= 50

    def test_deep_chains(self):
        for seed in range(3):
            plan = deep_chain_plan(random.Random(seed), "r", 300)
            assert assert_matches_oracle(plan, Catalog()) > 0


class TestRuleSetsOnOneCatalog:
    def test_rule_sets_alternate_on_one_plan_object(self):
        """The memo answers only for the rules it was filled under."""
        catalog = _hr_catalog()
        differ = 0
        for plan in hr_plans(range(100)):
            for rules in (DEFAULT_RULES, UNION_RULES) * 2:
                assert_matches_oracle(plan, catalog, rules)
            differ += (oracle_optimize(plan, catalog)[0]
                       != oracle_optimize(plan, catalog, UNION_RULES)[0])
        assert differ >= 40


class TestRuleLoopRuns:
    @pytest.mark.parametrize("rules", [DEFAULT_RULES, UNION_RULES],
                             ids=["default", "union-only"])
    def test_only_input_and_built_nodes_run_the_loop(self, rules):
        """Each input node runs the rule loop once; after a fire, only
        the nodes the rule built (not the normal subtrees it reused) do.
        Every loop starts with the first rule, so its call count is the
        number of loops run."""
        catalog = _hr_catalog()
        for plan in [*hr_plans(range(150)), *_rst_plans(range(20))]:
            counted, calls = counting(rules)
            rewriter = Rewriter(catalog, rules=counted)
            rewriter.optimize(plan)
            built = sum(
                len(_nodes(t.after, {id(n) for n in _nodes(t.before)}))
                for t in rewriter.trace
            )
            assert calls[rules[0].name] == len(_nodes(plan)) + built


class TestWorkGate:
    """Rule attempts on deep chains grow linearly with depth."""

    @staticmethod
    def _attempts(depth):
        counted, calls = counting(DEFAULT_RULES)
        plan = deep_chain_plan(random.Random(7), "r", depth)
        Rewriter(Catalog(), rules=counted).optimize(plan)
        return sum(calls.values()), len(_nodes(plan))

    def test_attempts_linear_in_depth(self):
        at_2000, nodes_2000 = self._attempts(2000)
        at_4000, nodes_4000 = self._attempts(4000)
        assert at_4000 <= 2.1 * at_2000
        budget = 2 * len(DEFAULT_RULES)
        assert at_2000 <= budget * nodes_2000
        assert at_4000 <= budget * nodes_4000
