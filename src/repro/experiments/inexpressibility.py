"""Experiment E-INEXPR: genericity as an inexpressibility tool.

Section 1: "genericity can be used as a tool for proving
inexpressibility results: If one shows that all queries in a language
are of a certain genericity class, then queries not in the class are
not expressible.  We follow Chandra [6] in presenting a few such
results."

The experiment machine-checks the three ingredients of each such
argument:

1. *language side* — every generated query of the sublanguage lies in
   the claimed genericity class (sampled over randomly composed terms);
2. *query side* — the target query does **not** lie in that class
   (counterexample found and re-verified);
3. the conclusion — the target is not expressible in the sublanguage.

Arguments checked:

* ``even`` is not expressible in the {x, Pi, U, Id, Ø̂} algebra
  (everything there is rel-fully generic; ``even`` is not);
* ``eq_adom`` is not expressible in any strong-fully generic language
  (e.g. Chandra's sigma-hat algebra of Prop 3.6);
* ``sigma_{$1=$2}`` is not expressible in the sigma-hat algebra either
  — equality can be *used* there but never *shown* (Section 3.2's four
  sublanguages);
* full-domain complement is not expressible in any language of queries
  generic w.r.t. non-total mappings (domain independence, Section 3.3).
"""

from __future__ import annotations

import random

from ..algebra.operators import (
    eq_adom,
    even_query,
    full_complement,
    hat_select_eq,
    projection,
    select_eq,
    self_cross,
    union_op,
)
from ..algebra.query import Query, compose, pair_query
from ..genericity.hierarchy import GenericitySpec
from ..genericity.witnesses import find_counterexample, find_counterexamples
from ..mappings.extensions import REL, STRONG
from ..mappings.generators import random_relation_value
from .report import ExperimentResult

__all__ = ["inexpressibility"]

_ALL = GenericitySpec("all", "all")


def _random_positive_term(rng: random.Random, depth: int = 2) -> Query:
    """A random query over the fully generic constructors of Cor 3.2."""
    if depth == 0:
        choice = rng.randrange(3)
        if choice == 0:
            return projection((rng.randrange(2),), 2)
        if choice == 1:
            return projection((0, 1), 2)
        return projection((1, 0), 2)
    choice = rng.randrange(3)
    if choice == 0:
        return compose(self_cross(), _random_positive_term(rng, depth - 1))
    if choice == 1:
        left = _random_positive_term(rng, depth - 1)
        right = _random_positive_term(rng, depth - 1)
        if str(left.output_type) == str(right.output_type):
            return compose(union_op(), pair_query(left, right))
        return left
    return compose(
        projection((0,), 2), _random_positive_term(rng, 0)
    )


def _random_hat_term(rng: random.Random) -> Query:
    """A random query over Chandra's strong-closed operations."""
    base = [
        hat_select_eq(0, 1, 2),
        projection((0,), 2),
        projection((1, 0), 2),
        self_cross(),
        compose(projection((0,), 1), hat_select_eq(0, 1, 2)),
    ]
    return rng.choice(base)


def inexpressibility(seed: int = 0, language_samples: int = 12,
                     trials: int = 200) -> ExperimentResult:
    """Check the three-step inexpressibility arguments."""
    rng = random.Random(seed)
    result = ExperimentResult(
        "E-INEXPR",
        "Genericity as an inexpressibility tool (Section 1 / Chandra)",
        "the sublanguage stays inside its genericity class while the "
        "target query falls outside, hence the target is inexpressible",
        ("argument", "step", "outcome", "expected"),
    )

    # ------------------------------------------------------------------
    # Argument 1: even not in the {x, Pi, U} algebra.
    # ------------------------------------------------------------------
    # The searches never draw from ``rng``, so drawing the sample first
    # leaves every later draw where it was.
    terms = [_random_positive_term(rng) for _ in range(language_samples)]
    violations = sum(
        search.found
        for search in find_counterexamples(terms, _ALL, REL, trials=25, seed=seed)
    )
    result.add("even vs {x,Pi,U}", "language fully generic",
               f"{language_samples - violations}/{language_samples} terms ok",
               "all ok")
    result.require(violations == 0, "sampled sublanguage term not generic")

    even_search = find_counterexample(even_query(), _ALL, REL,
                                      trials=trials, seed=seed)
    result.add("even vs {x,Pi,U}", "target outside class",
               even_search.found, True)
    result.require(even_search.found, "even must fail full genericity")
    result.add("even vs {x,Pi,U}", "conclusion",
               "even NOT expressible", "inexpressible")

    # ------------------------------------------------------------------
    # Argument 2: eq_adom not in the sigma-hat algebra (strong mode).
    # ------------------------------------------------------------------
    terms = [_random_hat_term(rng) for _ in range(language_samples)]
    violations = sum(
        search.found
        for search in find_counterexamples(
            terms, _ALL, STRONG, trials=25, seed=seed
        )
    )
    result.add("eq_adom vs sigma-hat algebra", "language strong-generic",
               f"{language_samples - violations}/{language_samples} terms ok",
               "all ok")
    result.require(violations == 0)

    eq_search = find_counterexample(eq_adom(), _ALL, STRONG,
                                    trials=trials, seed=seed)
    result.add("eq_adom vs sigma-hat algebra", "target outside class",
               eq_search.found, True)
    result.require(eq_search.found)
    result.add("eq_adom vs sigma-hat algebra", "conclusion",
               "eq_adom NOT expressible", "inexpressible")

    # ------------------------------------------------------------------
    # Argument 3: sigma (equality shown in output) not in the sigma-hat
    # algebra — Section 3.2's sublanguage separation.
    # ------------------------------------------------------------------
    sigma_search = find_counterexample(select_eq(0, 1, 2), _ALL, STRONG,
                                       trials=trials, seed=seed)
    result.add("sigma vs sigma-hat algebra", "target outside class",
               sigma_search.found, True)
    result.require(sigma_search.found)
    result.add("sigma vs sigma-hat algebra", "conclusion",
               "equality usable but not showable", "inexpressible")

    # ------------------------------------------------------------------
    # Argument 4: complement is domain dependent — not generic for
    # partial mappings, so not expressible in any domain-independent
    # (fully generic) language.
    # ------------------------------------------------------------------
    domain = list(range(4))
    comp = full_complement(domain, 2)
    all_same = GenericitySpec("all", "all", same_domain=True)
    comp_search = find_counterexample(
        comp, all_same, STRONG, trials=trials, seed=seed, domain_size=4,
        fixed_inputs=[
            random_relation_value(rng, 2, domain, rng.randint(0, 5))
            for _ in range(4)
        ],
    )
    result.add("complement vs domain-independent languages",
               "target outside class", comp_search.found, True)
    result.require(comp_search.found)
    result.add("complement vs domain-independent languages", "conclusion",
               "complement NOT expressible", "inexpressible")
    return result
