"""Experiments for Section 3: properties of genericity."""

from __future__ import annotations

import itertools
import random

from ..algebra.calculus import And, Atom, CalculusQuery, Exists, Or
from ..algebra.operators import (
    cross_op,
    difference_op,
    eq_adom,
    full_complement,
    hat_select_eq,
    identity_query,
    intersection_op,
    projection,
    select_eq,
    self_compose,
    self_cross,
    union_op,
)
from ..algebra.query import Query, compose, pair_query
from ..genericity.hierarchy import GenericitySpec
from ..genericity.witnesses import find_counterexample, find_counterexamples
from ..mappings.extensions import REL, STRONG
from ..mappings.families import MappingFamily
from ..mappings.generators import (
    random_domain,
    random_mapping_in_class,
    random_relation_value,
)
from ..types.ast import INT, TypeVar, set_of
from ..types.values import CVSet, Tup
from .report import ExperimentResult

__all__ = [
    "prop_3_1_3_2",
    "prop_3_3",
    "prop_3_4",
    "prop_3_5",
    "prop_3_6",
    "prop_3_7_3_8",
    "thm_3_9",
]

_ALL = GenericitySpec("all", "all")
_TOTSUR = GenericitySpec("total_surjective", "total_surjective")


def prop_3_1_3_2(seed: int = 0, trials: int = 80) -> ExperimentResult:
    """Closure of full genericity under composition, x, union, map(f);
    Ø̂, Id and projection fully generic; hence the {x, Pi, U, Ø̂, R}
    sublanguage of the algebra is fully generic (Cor 3.2)."""
    result = ExperimentResult(
        "E-3.1/3.2",
        "Prop 3.1 / Cor 3.2: the fully generic sublanguage",
        "x, Pi, U (plus Ø̂, Id, composition, map) are fully generic for "
        "both extension modes",
        ("query", "mode", "verdict"),
    )
    x = TypeVar("X")
    # Compound queries built only from the fully generic constructors.
    pi_then_cross = compose(self_cross(), projection((0,), 2))
    union_of_projections = compose(
        union_op(), pair_query(projection((0,), 2), projection((1,), 2))
    )
    catalog: list[Query] = [
        projection((0, 1), 2),
        self_cross(),
        identity_query(set_of(x)),
        pi_then_cross,
        union_of_projections,
    ]
    searches = {
        mode: find_counterexamples(catalog, _ALL, mode, trials=trials, seed=seed)
        for mode in (REL, STRONG)
    }
    for i, query in enumerate(catalog):
        for mode in (REL, STRONG):
            search = searches[mode][i]
            verdict = "fully generic" if not search.found else "VIOLATED"
            result.add(query.name, mode, verdict)
            result.require(not search.found, f"{query.name}/{mode}")
    return result


def prop_3_3(seed: int = 0, trials: int = 80) -> ExperimentResult:
    """The restricted calculus fragment is fully generic for both modes."""
    result = ExperimentResult(
        "E-3.3",
        "Prop 3.3: restricted calculus fragment fully generic",
        "atoms without repeated variables, same-vars OR, disjoint-vars "
        "AND, and EXISTS yield fully generic queries",
        ("calculus query", "mode", "verdict"),
    )
    # {x | exists y. R(x, y)}  — projection via the calculus.
    q_exists = CalculusQuery(
        ("x",), Exists("y", Atom("R", ("x", "y")))
    ).as_query(("R",))
    # {(x, y) | R(x, y) or R(y, x)} is ILLEGAL (shared vars under Or is
    # fine — Or needs *equal* free vars; this one qualifies).
    q_or = CalculusQuery(
        ("x", "y"), Or(Atom("R", ("x", "y")), Atom("R", ("y", "x")))
    ).as_query(("R",))
    # {(x, y, u, v) | R(x, y) and R(u, v)} — disjoint-variable AND.
    q_and = CalculusQuery(
        ("x", "y", "u", "v"),
        And(Atom("R", ("x", "y")), Atom("R", ("u", "v"))),
    ).as_query(("R",))
    catalog = (q_exists, q_or, q_and)
    searches = {
        mode: find_counterexamples(
            catalog,
            _ALL,
            mode,
            trials=trials,
            seed=seed,
            input_type=set_of(INT * INT),
        )
        for mode in (REL, STRONG)
    }
    for i, query in enumerate(catalog):
        for mode in (REL, STRONG):
            search = searches[mode][i]
            verdict = "fully generic" if not search.found else "VIOLATED"
            result.add(query.name, mode, verdict)
            result.require(not search.found, f"{query.name}/{mode}")
    return result


def prop_3_4(seed: int = 0, trials: int = 300) -> ExperimentResult:
    """rel-full C-genericity is not closed under difference and
    intersection: counterexamples must exist."""
    result = ExperimentResult(
        "E-3.4",
        "Prop 3.4: -, intersect break rel-full genericity",
        "the class of rel-fully C-generic queries is not closed under "
        "- and intersect",
        ("operation", "counterexample found"),
    )
    for op in (difference_op(), intersection_op()):
        # The operands (two copies of the identity on a pair of input
        # relations) are fully generic; the composite is not.
        search = find_counterexample(op, _ALL, REL, trials=trials, seed=seed)
        result.add(op.name, search.found)
        result.require(search.found, f"{op.name} must break rel mode")
    return result


def prop_3_5(seed: int = 0, trials: int = 300) -> ExperimentResult:
    """eq_adom is rel-fully generic but not strong-fully generic."""
    result = ExperimentResult(
        "E-3.5",
        "Prop 3.5: eq_adom separates the two modes",
        "eq_adom is rel-fully generic, NOT strong-fully generic; hence "
        "the rel/strong fully generic classes are incomparable",
        ("mode", "verdict", "expected"),
    )
    q = eq_adom()
    rel_search = find_counterexample(q, _ALL, REL, trials=trials, seed=seed)
    strong_search = find_counterexample(
        q, _ALL, STRONG, trials=trials, seed=seed
    )
    result.add(REL, "generic" if not rel_search.found else "NOT generic",
               "generic")
    result.add(STRONG, "generic" if not strong_search.found else "NOT generic",
               "NOT generic")
    result.require(not rel_search.found, "eq_adom must be rel-fully generic")
    result.require(strong_search.found, "eq_adom must fail in strong mode")
    return result


def prop_3_6(seed: int = 0, trials: int = 120) -> ExperimentResult:
    """Chandra's closure: strong-generic classes closed under U, &, Pi,
    x, -, sigma-hat.  sigma-hat_{1=2} is strong-fully generic while
    sigma_{1=2} is not."""
    result = ExperimentResult(
        "E-3.6",
        "Prop 3.6: strong genericity and hat-selection",
        "U, &, Pi, x, -, sigma-hat preserve strong genericity; sigma-hat "
        "is strong-fully generic, plain sigma is not",
        ("query", "mode", "verdict", "expected"),
    )
    cases = [
        (hat_select_eq(0, 1, 2), True),
        (select_eq(0, 1, 2), False),
        (difference_op(), True),
        (intersection_op(), True),
        (union_op(), True),
        (cross_op(), True),
        (self_compose(), True),  # = Pi(sigma-hat(R x R))
    ]
    searches = find_counterexamples(
        [query for query, _ in cases], _ALL, STRONG, trials=trials, seed=seed
    )
    for (query, expect_generic), search in zip(cases, searches):
        verdict = "generic" if not search.found else "NOT generic"
        result.add(query.name, STRONG, verdict,
                   "generic" if expect_generic else "NOT generic")
        result.require(search.found != expect_generic, query.name)
    return result


def prop_3_7_3_8(seed: int = 0, trials: int = 60) -> ExperimentResult:
    """Full-domain complement under total+surjective mappings:
    H^strong(R, R') iff H^strong(co-R, co-R'); and a query is
    strong-generic w.r.t. total+surjective mappings iff its complement
    is."""
    result = ExperimentResult(
        "E-3.7/3.8",
        "Props 3.7/3.8: complements and total+surjective mappings",
        "for total+surjective H: strong relatedness of relations and of "
        "their full-domain complements coincide",
        ("part", "checks", "failures"),
    )
    rng = random.Random(seed)
    failures = 0
    checks = 0
    for _ in range(trials):
        left = random_domain(rng, 3, INT)
        right = random_domain(rng, 3, INT, offset=100)
        h = random_mapping_in_class(rng, "total_surjective", left, right, INT)
        fam = MappingFamily({"int": h})
        strong = fam.extend(set_of(INT * INT), STRONG)
        r = random_relation_value(rng, 2, left, rng.randint(0, 6))
        r_prime = random_relation_value(rng, 2, right, rng.randint(0, 6))
        co_r = CVSet(
            {Tup(c) for c in itertools.product(left, repeat=2)} - set(r)
        )
        co_r_prime = CVSet(
            {Tup(c) for c in itertools.product(right, repeat=2)}
            - set(r_prime)
        )
        checks += 1
        if strong.holds(r, r_prime) != strong.holds(co_r, co_r_prime):
            failures += 1
    result.add("3.7 complement equivalence", checks, failures)
    result.require(failures == 0)

    # 3.8: complement query is strong-generic w.r.t. total+surjective
    # mappings of the (single, fixed) full domain onto itself — the
    # full-domain semantics needs the query and the mappings to agree on
    # what "the domain" is.
    domain = list(range(4))
    comp_q = full_complement(domain, 2)
    totsur_same = GenericitySpec(
        "total_surjective", "total_surjective", same_domain=True
    )
    search = find_counterexample(
        comp_q,
        totsur_same,
        STRONG,
        trials=trials,
        seed=seed,
        domain_size=4,
        fixed_inputs=[
            random_relation_value(rng, 2, domain, rng.randint(0, 6))
            for _ in range(4)
        ],
    )
    result.add("3.8 complement query generic (strong)", search.trials,
               1 if search.found else 0)
    result.require(not search.found, "complement must be strong-generic")

    # ... and NOT generic w.r.t. arbitrary mappings (domain dependence).
    all_same = GenericitySpec("all", "all", same_domain=True)
    search_all = find_counterexample(
        comp_q,
        all_same,
        STRONG,
        trials=300,
        seed=seed,
        domain_size=4,
        fixed_inputs=[
            random_relation_value(rng, 2, domain, rng.randint(0, 6))
            for _ in range(4)
        ],
    )
    result.add("complement vs partial mappings", search_all.trials,
               1 if search_all.found else 0)
    result.require(search_all.found,
                   "complement must fail for non-total mappings")
    return result


def thm_3_9(seed: int = 0, trials: int = 40) -> ExperimentResult:
    """The four-Russians instance: if a total+surjective-generic query
    outputs a tuple with a component outside the active domain, every
    replacement of that component by another non-adom element is also in
    the output."""
    result = ExperimentResult(
        "E-3.9",
        "Thm 3.9: non-adom output components are interchangeable",
        "a tuple with a co-adom component forces all its co-adom variants",
        ("query", "checks", "failures"),
    )
    rng = random.Random(seed)
    domain = list(range(5))
    comp_q = full_complement(domain, 2)
    failures = 0
    checks = 0
    for _ in range(trials):
        r = random_relation_value(rng, 2, domain[:3], rng.randint(0, 4))
        out = comp_q.fn(r)
        adom = {a for t in r for a in t}
        co_adom = [d for d in domain if d not in adom]
        for t in out:
            for position in range(2):
                if t[position] in co_adom:
                    checks += 1
                    variants_present = all(
                        t.replace(position, other) in out
                        for other in co_adom
                    )
                    if not variants_present:
                        failures += 1
    result.add(comp_q.name, checks, failures)
    result.require(checks > 0, "experiment must exercise co-adom outputs")
    result.require(failures == 0)
    return result
