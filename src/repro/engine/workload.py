"""Synthetic workload generators.

The paper has no datasets; these generators build the instance families
its claims are exercised on:

* the relations ``r1``, ``r2``, ``r3`` and the mapping ``h`` of
  Example 2.2;
* keyed "employees/students" relations sharing a social-security-style
  key, the Section 4.4 optimization scenario;
* random databases for optimizer equivalence verification.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from ..optimizer.plan import (
    Difference,
    Intersect,
    Join,
    MapNode,
    Plan,
    Product,
    Project,
    Scan,
    Select,
    Union,
)
from ..types.values import CVList, CVSet, Tup, Value
from .database import Database

__all__ = [
    "derive_rng",
    "paper_r1",
    "paper_r2",
    "paper_r3",
    "paper_h_pairs",
    "hr_database",
    "random_database",
    "random_plan",
    "deep_chain_plan",
    "random_atom_database",
    "random_nested_database",
]


def derive_rng(*parts: object) -> random.Random:
    """A fresh, explicitly-seeded rng keyed by a path of parts.

    ``derive_rng(base_seed, i, scenario)`` gives every (seed, scenario)
    cell of a sweep its own independent stream — never the module-level
    ``random`` state — so a cell draws the same values whether it runs
    serially or on any worker process of a parallel shard, in any
    order.  The key is the ``/``-joined ``str`` of the parts, so
    ``derive_rng(0, 3, "deep")`` reproduces the historical seeding
    ``random.Random("0/3/deep")`` exactly.
    """
    return random.Random("/".join(str(p) for p in parts))


def paper_r1() -> CVSet:
    """Example 2.2's ``r1``."""
    return CVSet(
        Tup(pair)
        for pair in [
            ("e", "f"),
            ("i", "f"),
            ("e", "j"),
            ("i", "j"),
            ("f", "g"),
            ("j", "g"),
        ]
    )


def paper_r2() -> CVSet:
    """Example 2.2's ``r2`` — the homomorphic image of ``r1``."""
    return CVSet(Tup(pair) for pair in [("a", "b"), ("b", "c")])


def paper_r3() -> CVSet:
    """``r3`` — ``r1`` minus ``(e,f), (i,f), (j,g)``; maps onto ``r2``
    only as a *regular* (non-strong) homomorphism."""
    return CVSet(Tup(pair) for pair in [("e", "j"), ("i", "j"), ("f", "g")])


def paper_h_pairs() -> set[tuple[str, str]]:
    """The homomorphism ``h`` of Example 2.2."""
    return {("e", "a"), ("i", "a"), ("f", "b"), ("j", "b"), ("g", "c")}


def hr_database(
    rng: random.Random,
    employees: int,
    students: int,
    overlap: int = 0,
    departments: int = 4,
) -> Database:
    """The Section 4.4 scenario: employees and students sharing an
    SSN-style key in column 1.

    Schema: ``employees(ssn, name, dept)``, ``students(ssn, name,
    dept)``; ``ssn`` is a key for the *union* (declared as a shared
    key), so ``pi_ssn`` is injective on ``employees union students`` and
    the paper's ``pi(R - S) = pi(R) - pi(S)`` rewrite is licensed."""
    db = Database()
    shared = {(0,): "ssn"}
    db.create("employees", 3, keys=[(0,)], shared_keys=shared)
    db.create("students", 3, keys=[(0,)], shared_keys=shared)
    db.create("contractors", 3, keys=[])  # no key: rewrite must NOT fire

    def person(ssn: int) -> tuple:
        # Deterministic per ssn: a person enrolled both as employee and
        # student contributes the *same* tuple to both relations, which
        # is what makes ssn a key for the union (the paper's premise).
        return (ssn, f"person{ssn}", f"dept{ssn % departments}")

    employee_ssns = list(range(1000, 1000 + employees))
    student_ssns = list(
        range(1000 + employees - overlap, 1000 + employees - overlap + students)
    )
    db.insert("employees", [person(s) for s in employee_ssns])
    db.insert("students", [person(s) for s in student_ssns])
    db.insert(
        "contractors",
        [
            (rng.randrange(1000, 1000 + employees + students), f"c{i}", "dept0")
            for i in range(max(1, employees // 2))
        ],
    )
    return db


def _is_plain_int(v: Value) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


#: Named predicates/functions for random plans.  Names identify
#: semantics — the invariant the plan-result cache and the rewriter's
#: rule trace both rely on.
_PREDICATES = {
    "always": lambda t: True,
    "first_even": lambda t: _is_plain_int(t[0]) and t[0] % 2 == 0,
    "first_small": lambda t: _is_plain_int(t[0]) and t[0] < 3,
}
_PREDICATES_WIDE = dict(
    _PREDICATES, first_two_equal=lambda t: t[0] == t[1]
)


def _map_swap(t: Tup) -> Tup:
    return Tup(t.items[::-1])


def _map_dup_first(t: Tup) -> Tup:
    items = t.items
    return Tup((items[0],) + items)


def _map_first_only(t: Tup) -> Tup:
    return Tup((t[0],))


def random_plan(
    rng: random.Random,
    names: Sequence[str],
    *,
    base_arity: int = 2,
    depth: int = 3,
    arity: Optional[int] = None,
) -> Plan:
    """A random logical plan over the named base relations.

    Exercises every node type — including empty-``on`` joins,
    non-injective maps, and duplicated-column projections — while
    tracking arities so union-compatible operators get matching inputs.
    A join gets at most as many column pairs as its narrower input has
    columns, so at the default target arity (1 to 3) it joins on zero
    or one pair.  Used by the executor-equivalence property tests and
    benchmarks.
    """
    target = arity if arity is not None else rng.randint(1, 3)

    def leaf(want: int) -> Plan:
        scan = Scan(rng.choice(list(names)))
        if want == base_arity and rng.random() < 0.7:
            return scan
        columns = tuple(rng.randrange(base_arity) for _ in range(want))
        return Project(columns, scan)

    def gen(levels: int, want: int) -> Plan:
        if levels <= 0:
            return leaf(want)
        choices = ["project", "select", "union", "difference", "intersect"]
        choices.append("map_swap")
        if want >= 2:
            choices += ["product", "join", "map_dup"]
        if want == 1:
            choices.append("map_first")
        kind = rng.choice(choices)
        if kind == "project":
            child_arity = rng.randint(1, 3)
            child = gen(levels - 1, child_arity)
            columns = tuple(
                rng.randrange(child_arity) for _ in range(want)
            )
            return Project(columns, child)
        if kind == "select":
            pool = _PREDICATES_WIDE if want >= 2 else _PREDICATES
            name = rng.choice(sorted(pool))
            return Select(name, pool[name], gen(levels - 1, want))
        if kind == "map_swap":
            return MapNode("swap", _map_swap, gen(levels - 1, want),
                           injective=True)
        if kind == "map_dup":
            return MapNode("dup_first", _map_dup_first,
                           gen(levels - 1, want - 1), injective=True)
        if kind == "map_first":
            return MapNode("first_only", _map_first_only,
                           gen(levels - 1, rng.randint(1, 3)))
        if kind == "union":
            return Union(gen(levels - 1, want), gen(levels - 1, want))
        if kind == "difference":
            return Difference(gen(levels - 1, want), gen(levels - 1, want))
        if kind == "intersect":
            return Intersect(gen(levels - 1, want), gen(levels - 1, want))
        left_arity = rng.randint(1, want - 1)
        right_arity = want - left_arity
        left = gen(levels - 1, left_arity)
        right = gen(levels - 1, right_arity)
        if kind == "product":
            return Product(left, right)
        pairs = tuple(
            (rng.randrange(left_arity), rng.randrange(right_arity))
            for _ in range(rng.randint(0, min(left_arity, right_arity)))
        )
        return Join(pairs, left, right)

    return gen(depth, target)


def random_database(
    rng: random.Random,
    names: Sequence[str],
    arity: int = 2,
    domain_size: int = 6,
    max_rows: int = 12,
) -> dict[str, CVSet]:
    """A random database for equivalence verification."""
    domain = list(range(domain_size))
    out = {}
    for name in names:
        rows = {
            Tup(tuple(rng.choice(domain) for _ in range(arity)))
            for _ in range(rng.randint(0, max_rows))
        }
        out[name] = CVSet(rows)
    return out


def deep_chain_plan(
    rng: random.Random, name: str, depth: int, *, base_arity: int = 2
) -> Plan:
    """A unary-operator chain of the given depth over one scan.

    Every link preserves arity ``base_arity`` (selections from the
    standard pool, permuting projections, the ``swap`` map), so chains
    compose to any depth.  Exercises deep-plan safety: compilation,
    optimization and ledger collection must all survive depths far past
    the default recursion limit.
    """
    plan: Plan = Scan(name)
    columns_swap = tuple(range(base_arity))[::-1]
    predicate_names = sorted(_PREDICATES)
    for _ in range(depth):
        kind = rng.randrange(3)
        if kind == 0:
            pname = rng.choice(predicate_names)
            plan = Select(pname, _PREDICATES[pname], plan)
        elif kind == 1:
            plan = Project(columns_swap, plan)
        else:
            plan = MapNode("swap", _map_swap, plan, injective=True)
    return plan


def random_atom_database(
    rng: random.Random,
    names: Sequence[str],
    domain_size: int = 6,
    max_rows: int = 8,
) -> dict[str, CVSet]:
    """Relations whose elements are bare atoms, not tuples.

    The value model admits sets of atoms directly; work accounting must
    weigh them via :func:`~repro.optimizer.plan.tuple_weight` (1 per
    atom) instead of assuming ``len(t)`` exists.
    """
    atoms: list[Value] = [*range(domain_size // 2)]
    atoms += [f"a{i}" for i in range(domain_size - domain_size // 2)]
    out = {}
    for name in names:
        rows = {rng.choice(atoms) for _ in range(rng.randint(0, max_rows))}
        out[name] = CVSet(rows)
    return out


def random_nested_database(
    rng: random.Random,
    names: Sequence[str],
    arity: int = 2,
    domain_size: int = 5,
    max_rows: int = 8,
) -> dict[str, CVSet]:
    """Binary relations whose components are nested complex values
    (atoms, pairs, sets, lists) — the complex-value model the paper's
    queries actually range over."""
    domain = list(range(domain_size))

    def component() -> Value:
        roll = rng.random()
        if roll < 0.5:
            return rng.choice(domain)
        if roll < 0.7:
            return Tup((rng.choice(domain), rng.choice(domain)))
        if roll < 0.9:
            return CVSet(rng.choice(domain) for _ in range(rng.randint(0, 3)))
        return CVList(rng.choice(domain) for _ in range(rng.randint(0, 3)))

    out = {}
    for name in names:
        rows = {
            Tup(tuple(component() for _ in range(arity)))
            for _ in range(rng.randint(0, max_rows))
        }
        out[name] = CVSet(rows)
    return out
