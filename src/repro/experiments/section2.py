"""Experiments for Section 2: definitions and notions of genericity.

One experiment per numbered claim; each returns an
:class:`~repro.experiments.report.ExperimentResult` whose
``matches_paper`` flag certifies the reproduced behaviour.
"""

from __future__ import annotations

import random

from ..algebra.operators import (
    even_query,
    projection,
    select_const,
    select_eq,
    self_compose,
    self_cross,
)
from ..engine.workload import paper_h_pairs, paper_r1, paper_r2, paper_r3
from ..genericity.hierarchy import GenericitySpec, STANDARD_LATTICE
from ..genericity.witnesses import find_counterexample, find_counterexamples
from ..mappings.extensions import REL, STRONG
from ..mappings.families import ConstantSpec, MappingFamily, preserves_predicate
from ..mappings.generators import random_domain, random_mapping_in_class
from ..mappings.mapping import Mapping
from ..types.ast import BOOL, INT, STR, Product, set_of
from ..types.signatures import standard_signature
from ..types.values import CVSet, cvset, tup
from .report import ExperimentResult

__all__ = [
    "example_2_2",
    "example_2_6",
    "prop_2_8",
    "queries_q3_q4",
    "prop_2_10",
    "prop_2_11",
    "lemma_2_12",
    "prop_2_13",
    "query_q5",
]

_PAIR_STR = set_of(STR * STR)
_PAIR_INT = set_of(INT * INT)


def _paper_family() -> MappingFamily:
    h = Mapping(paper_h_pairs(), STR, STR)
    return MappingFamily({"str": h})


def example_2_2(seed: int = 0) -> ExperimentResult:
    """Q1 = R o R commutes with the strong homomorphism h on r1 but not
    with the regular homomorphism on r3; Q2 = R x R commutes with all."""
    result = ExperimentResult(
        "E-2.2",
        "Example 2.2: composition query vs homomorphisms",
        "Q1(h(r1)) = h(Q1(r1)) holds; fails for r3; Q2 invariant always",
        ("query", "instance", "mode", "inputs related", "outputs related"),
    )
    family = _paper_family()
    q1, q2 = self_compose(), self_cross()
    rel_in = family.extend(_PAIR_STR, REL)
    strong_in = family.extend(_PAIR_STR, STRONG)
    r1, r2, r3 = paper_r1(), paper_r2(), paper_r3()

    # Q1 on r1 -> r2 (strong homomorphism): outputs must be related.
    q1_out_rel = family.extend(_PAIR_STR, REL)
    expected_q1_r1 = cvset(tup("e", "g"), tup("i", "g"))
    result.require(q1.fn(r1) == expected_q1_r1, "Q1(r1) differs from paper")
    result.require(q1.fn(r2) == cvset(tup("a", "c")), "Q1(r2) differs from paper")
    for mode, in_rel in ((REL, rel_in), (STRONG, strong_in)):
        related_in = in_rel.holds(r1, r2)
        related_out = q1_out_rel.holds(q1.fn(r1), q1.fn(r2))
        result.add("Q1=RoR", "r1->r2", mode, related_in, related_out)
        result.require(related_in and related_out)

    # Q1 on r3 -> r2: related only in rel mode, and invariance FAILS.
    related_in_rel = rel_in.holds(r3, r2)
    related_in_strong = strong_in.holds(r3, r2)
    out_related = q1_out_rel.holds(q1.fn(r3), q1.fn(r2))
    result.add("Q1=RoR", "r3->r2", REL, related_in_rel, out_related)
    result.add("Q1=RoR", "r3->r2", STRONG, related_in_strong, "n/a")
    result.require(related_in_rel and not out_related,
                   "Q1 should break under the regular homomorphism")
    result.require(not related_in_strong, "r3->r2 must not be strong")
    result.require(q1.fn(r3) == CVSet(), "Q1(r3) should be empty")

    # Q2 = R x R is invariant for both instances in rel mode.  Note the
    # output elements are pairs-of-pairs, not flat 4-tuples, so the
    # product type is built nested (the * operator flattens).
    pair = Product((STR, STR))
    q2_out_rel = family.extend(set_of(Product((pair, pair))), REL)
    for name, source in (("r1", r1), ("r3", r3)):
        ok = q2_out_rel.holds(q2.fn(source), q2.fn(r2))
        result.add("Q2=RxR", f"{name}->r2", REL, True, ok)
        result.require(ok, f"Q2 must stay invariant on {name}")
    return result


def example_2_6(seed: int = 0) -> ExperimentResult:
    """Extension-mode behaviour of {h x h}^x on the paper's instances."""
    result = ExperimentResult(
        "E-2.6",
        "Example 2.6: rel vs strong set extensions",
        "{hxh}^x(r1,r2) for both modes; {hxh}^rel(r3,r2) but not strong",
        ("pair", "mode", "holds", "expected"),
    )
    family = _paper_family()
    cases = [
        ("r1,r2", paper_r1(), paper_r2(), REL, True),
        ("r1,r2", paper_r1(), paper_r2(), STRONG, True),
        ("r3,r2", paper_r3(), paper_r2(), REL, True),
        ("r3,r2", paper_r3(), paper_r2(), STRONG, False),
    ]
    for name, left, right, mode, expected in cases:
        rel = family.extend(_PAIR_STR, mode)
        holds = rel.holds(left, right)
        result.add(name, mode, holds, expected)
        result.require(holds == expected, f"{name}/{mode} mismatch")
    return result


def prop_2_8(seed: int = 0, trials: int = 60) -> ExperimentResult:
    """Proposition 2.8 (i)-(iv) on random mappings."""
    result = ExperimentResult(
        "E-2.8",
        "Prop 2.8: structural properties of extensions",
        "(i) total/surjective lift to rel; (ii) strong injective on set "
        "types; (iii) composition; (iv) inverse commutes with extension",
        ("part", "checks", "failures"),
    )
    rng = random.Random(seed)
    t = set_of(INT * INT)

    # (i) If H total/surjective then H^rel is too: every value over the
    # source domain has an image / every value over the target a preimage.
    failures_i = 0
    checks_i = 0
    for _ in range(trials):
        left = random_domain(rng, 3, INT)
        right = random_domain(rng, 3, INT, offset=100)
        h = random_mapping_in_class(rng, "total_surjective", left, right, INT)
        fam = MappingFamily({"int": h})
        rel = fam.extend(t, REL)
        from ..mappings.generators import random_relation_value
        from ..genericity.invariance import sample_image

        value = random_relation_value(rng, 2, left, rng.randint(0, 4))
        checks_i += 1
        if sample_image(rel, value, rng) is None:
            failures_i += 1
    result.add("(i) totality lifts", checks_i, failures_i)
    result.require(failures_i == 0)

    # (ii) Strong extension is injective on set types: distinct images
    # of the same set never occur; symmetric check by preimages.
    failures_ii = 0
    checks_ii = 0
    for _ in range(trials):
        left = random_domain(rng, 3, INT)
        right = random_domain(rng, 3, INT, offset=100)
        h = random_mapping_in_class(rng, "all", left, right, INT)
        fam = MappingFamily({"int": h})
        strong = fam.extend(set_of(INT), STRONG)
        from ..mappings.generators import random_value

        s1 = random_value(rng, set_of(INT), {"int": left})
        images = list(strong.images(s1))
        checks_ii += 1
        if len(images) > 1:
            failures_ii += 1
    result.add("(ii) strong injective", checks_ii, failures_ii)
    result.require(failures_ii == 0)

    # (iii) (H1 o H2)^rel = H1^rel o H2^rel on sampled values.
    failures_iii = 0
    checks_iii = 0
    for _ in range(trials):
        a = random_domain(rng, 3, INT)
        b = random_domain(rng, 3, INT, offset=100)
        c = random_domain(rng, 3, INT, offset=200)
        h1 = random_mapping_in_class(rng, "all", a, b, INT)
        h2 = random_mapping_in_class(rng, "all", b, c, INT)
        h3 = h1.compose(h2)
        rel1 = MappingFamily({"int": h1}).extend(set_of(INT), REL)
        rel2 = MappingFamily({"int": h2}).extend(set_of(INT), REL)
        rel3 = MappingFamily({"int": h3}).extend(set_of(INT), REL)
        from ..mappings.generators import random_value

        s1 = random_value(rng, set_of(INT), {"int": a})
        s3 = random_value(rng, set_of(INT), {"int": c})
        checks_iii += 1
        lhs = rel3.holds(s1, s3)
        rhs = any(
            rel1.holds(s1, mid) and rel2.holds(mid, s3)
            for mid in _subsets(b)
        )
        if lhs != rhs:
            failures_iii += 1
    result.add("(iii) composition", checks_iii, failures_iii)
    result.require(failures_iii == 0)

    # (iv) {H^-1}^x = ({H}^x)^-1.
    failures_iv = 0
    checks_iv = 0
    for _ in range(trials):
        left = random_domain(rng, 3, INT)
        right = random_domain(rng, 3, INT, offset=100)
        h = random_mapping_in_class(rng, "all", left, right, INT)
        fam = MappingFamily({"int": h})
        fam_inv = fam.inverse()
        for mode in (REL, STRONG):
            fwd = fam.extend(set_of(INT), mode)
            bwd = fam_inv.extend(set_of(INT), mode)
            from ..mappings.generators import random_value

            s1 = random_value(rng, set_of(INT), {"int": left})
            s2 = random_value(rng, set_of(INT), {"int": right})
            checks_iv += 1
            if fwd.holds(s1, s2) != bwd.holds(s2, s1):
                failures_iv += 1
    result.add("(iv) inverse", checks_iv, failures_iv)
    result.require(failures_iv == 0)
    return result


def _subsets(domain):
    import itertools

    for size in range(len(domain) + 1):
        for combo in itertools.combinations(sorted(domain, key=repr), size):
            yield CVSet(combo)


def queries_q3_q4(seed: int = 0, trials: int = 60) -> ExperimentResult:
    """Definition 2.9's examples: Q3 generic everywhere; Q4 fails for
    general mappings (the paper's {[a,a]} vs {[b,c]} witness) but is
    rel-generic w.r.t. injective mappings."""
    result = ExperimentResult(
        "E-2.9",
        "Q3 = pi_1 and Q4 = sigma_{$1=$2}",
        "Q3 x-generic w.r.t. all mappings; Q4 not (witness H={(a,b),(a,c)}),"
        " but rel-generic w.r.t. injective mappings",
        ("query", "class", "mode", "verdict"),
    )
    q3 = projection((0,), 2)
    q4 = select_eq(0, 1, 2)

    # The paper's explicit witness for Q4.
    h = Mapping({(0, 1), (0, 2)}, INT, INT)
    fam = MappingFamily({"int": h})
    in_rel = fam.extend(_PAIR_INT, REL)
    r1 = cvset(tup(0, 0))
    r2 = cvset(tup(1, 2))
    witness_ok = in_rel.holds(r1, r2) and not in_rel.holds(
        q4.fn(r1), q4.fn(r2)
    )
    result.add("Q4", "paper witness", REL, "violates" if witness_ok else "?")
    result.require(witness_ok, "paper's Q4 witness must violate invariance")

    for query, spec_name, mode, expect_generic in [
        (q3, "all", REL, True),
        (q3, "all", STRONG, True),
        (q4, "all", REL, False),
        (q4, "injective", REL, True),
        (q4, "injective", STRONG, True),
    ]:
        spec = next(s for s in STANDARD_LATTICE if s.name == spec_name)
        search = find_counterexample(
            query, spec, mode, trials=trials, seed=seed
        )
        verdict = "generic" if not search.found else "NOT generic"
        result.add(query.name, spec_name, mode, verdict)
        result.require(search.found != expect_generic)
    return result


def prop_2_10(seed: int = 0, trials: int = 40) -> ExperimentResult:
    """Monotonicity: genericity w.r.t. a class implies genericity w.r.t.
    every contained class — verified across the operation catalog."""
    from ..genericity.classify import classification_table
    from ..genericity.hierarchy import spec_leq

    result = ExperimentResult(
        "E-2.10",
        "Prop 2.10: smaller mapping class => larger genericity class",
        "H' subset H implies Gen(H) subset Gen(H')",
        ("query", "violations of monotonicity"),
    )
    catalog = [projection((0,), 2), select_eq(0, 1, 2), self_cross(), self_compose()]
    rows = classification_table(catalog, trials=trials, seed=seed)
    for query, row in zip(catalog, rows):
        violations = 0
        for a in row.verdicts:
            for b in row.verdicts:
                if a.mode != b.mode:
                    continue
                # a.spec contains b.spec => generic(a) implies generic(b)
                if spec_leq(b.spec, a.spec) and a.generic and not b.generic:
                    violations += 1
        result.add(query.name, violations)
        result.require(violations == 0)
    return result


def prop_2_11(seed: int = 0, trials: int = 120) -> ExperimentResult:
    """Queries defined at all types: generic w.r.t. functional mappings
    iff generic w.r.t. all mappings."""
    result = ExperimentResult(
        "E-2.11",
        "Prop 2.11: functional vs general mappings coincide",
        "for queries defined at all types, x-genericity w.r.t. functional "
        "mappings iff w.r.t. all mappings",
        ("query", "mode", "functional verdict", "all verdict", "agree"),
    )
    catalog = [
        projection((0,), 2),
        self_cross(),
        self_compose(),
        select_eq(0, 1, 2),
    ]
    spec_all = GenericitySpec("all", "all")
    spec_fun = GenericitySpec("functional", "functional")
    found = {
        (spec.name, mode): [
            search.found
            for search in find_counterexamples(
                catalog, spec, mode, trials=trials, seed=seed
            )
        ]
        for spec in (spec_fun, spec_all)
        for mode in (REL, STRONG)
    }
    for i, query in enumerate(catalog):
        result.require(query.defined_at_all_types(),
                       f"{query.name} should be defined at all types")
        for mode in (REL, STRONG):
            found_fun = found["functional", mode][i]
            found_all = found["all", mode][i]
            agree = found_fun == found_all
            result.add(
                query.name,
                mode,
                "NOT generic" if found_fun else "generic",
                "NOT generic" if found_all else "generic",
                agree,
            )
            result.require(agree, f"{query.name}/{mode} disagree")
    return result


def lemma_2_12(seed: int = 0, trials: int = 400) -> ExperimentResult:
    """`even` is not strictly x-C-generic for any finite C from an
    infinite domain: the counterexample search must succeed even when
    the mappings strictly preserve a finite constant set."""
    result = ExperimentResult(
        "E-2.12",
        "Lemma 2.12: `even` vs strict constant preservation",
        "for finite C, `even` is not strictly x-C-generic (x = rel, strong)",
        ("constants |C|", "mode", "counterexample found"),
    )
    q = even_query()
    for size in (0, 1, 2):
        constants = tuple(
            ConstantSpec(value, INT, strict=True) for value in range(size)
        )
        spec = GenericitySpec(
            f"strict-C{size}", "functional", constants=constants,
            same_domain=True,
        )
        for mode in (REL, STRONG):
            search = find_counterexample(
                q, spec, mode, trials=trials, seed=seed, domain_size=5
            )
            result.add(size, mode, search.found)
            result.require(search.found,
                           f"even must fail vs strict C of size {size}")
    return result


def prop_2_13(seed: int = 0, trials: int = 120) -> ExperimentResult:
    """H^x preserves p iff it preserves not p."""
    result = ExperimentResult(
        "E-2.13",
        "Prop 2.13: predicate preservation symmetric under negation",
        "under the functional interpretation (bool fixed to identity), "
        "H^x preserves p iff it preserves not-p",
        ("predicate", "checks", "disagreements"),
    )
    rng = random.Random(seed)
    sig = standard_signature()
    even_p = sig["even"]
    # Build the negation as a fresh symbol.
    odd_p = sig.add_symbol("odd", (INT,), BOOL, lambda x: x % 2 != 0)
    disagreements = 0
    for _ in range(trials):
        left = random_domain(rng, 4, INT)
        right = random_domain(rng, 4, INT, offset=50)
        h = random_mapping_in_class(rng, "all", left, right, INT)
        fam = MappingFamily({"int": h})
        if preserves_predicate(fam, even_p) != preserves_predicate(fam, odd_p):
            disagreements += 1
    result.add("even vs odd", trials, disagreements)
    result.require(disagreements == 0)
    return result


def query_q5(seed: int = 0, trials: int = 200) -> ExperimentResult:
    """Q5 = sigma_{$1=7}: not generic in general; rel-generic for
    mappings strictly preserving 7; NOT for mappings merely preserving 7;
    and generic for the larger class preserving the predicate =_7."""
    result = ExperimentResult(
        "E-Q5",
        "Q5 = sigma_{$1=7} and constant/predicate preservation",
        "Q5 generic iff 7 strictly preserved; preserving =_7 suffices "
        "and is the tighter classification (Section 2.5)",
        ("mapping class", "mode", "verdict", "expected"),
    )
    sig = standard_signature()
    sig.add_symbol("eq7", (INT,), BOOL, lambda x: x == 7)
    q5 = select_const(0, 7, 1, INT)

    def spec_with(name, constants=(), predicates=()):
        return GenericitySpec(
            name, "functional", constants=constants, predicates=predicates,
            same_domain=False,
        )

    cases = [
        # Domain size 8 so the constant 7 occurs in the inputs at all —
        # otherwise Q5 is vacuously invariant.
        (GenericitySpec("plain", "functional"), REL, False),
        (
            spec_with(
                "strict-7", constants=(ConstantSpec(7, INT, strict=True),)
            ),
            REL,
            True,
        ),
        (
            spec_with(
                "regular-7", constants=(ConstantSpec(7, INT, strict=False),)
            ),
            REL,
            False,
        ),
        (spec_with("preserve-eq7", predicates=("eq7",)), REL, True),
    ]
    for spec, mode, expect_generic in cases:
        search = find_counterexample(
            q5, spec, mode, trials=trials, seed=seed, domain_size=8,
            signature=sig,
        )
        verdict = "generic" if not search.found else "NOT generic"
        result.add(spec.name, mode, verdict,
                   "generic" if expect_generic else "NOT generic")
        result.require(search.found != expect_generic, f"{spec.name} mismatch")
    return result
