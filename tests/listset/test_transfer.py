"""Tests for the list-to-set transfer machinery (Lemmas 4.6-4.11, Thm 4.13)."""

import random

import pytest

from repro.lambda2.prelude import build_prelude
from repro.listset.setfuncs import cardinality, poly, set_union
from repro.listset.transfer import (
    lemma_4_6_part1,
    lemma_4_6_part2,
    lift_to_lists,
    lists_witness,
    transfer_parametricity,
)
from repro.mappings.extensions import ListRel, SetRelExt
from repro.mappings.generators import random_domain, random_mapping_in_class
from repro.mappings.mapping import Mapping
from repro.types.ast import INT, Product, list_of, tvar
from repro.types.values import CVList, CVSet, Tup, cvlist, cvset, tup


def h() -> Mapping:
    return Mapping({(0, 10), (0, 11), (1, 11), (2, 12)}, INT, INT)


@pytest.fixture(scope="module")
def prelude():
    return build_prelude()


class TestLemma46:
    def test_part1_on_related_lists(self):
        assert lemma_4_6_part1(h(), cvlist(0, 1, 2), cvlist(10, 11, 12))
        assert lemma_4_6_part1(h(), cvlist(0, 0), cvlist(10, 11))

    def test_part1_vacuous_on_unrelated(self):
        # Premise fails: implication vacuously true.
        assert lemma_4_6_part1(h(), cvlist(0), cvlist(12))

    def test_part2_constructive(self):
        assert lemma_4_6_part2(h(), cvset(0, 1, 2), cvset(10, 11, 12))

    def test_lists_witness_properties(self):
        s1, s2 = cvset(0, 1, 2), cvset(10, 11, 12)
        witness = lists_witness(h(), s1, s2)
        assert witness is not None
        l1, l2 = witness
        assert CVSet(l1) == s1
        assert CVSet(l2) == s2
        assert ListRel(h()).holds(l1, l2)

    def test_lists_witness_none_when_unrelated(self):
        assert lists_witness(h(), cvset(0), cvset(12)) is None

    def test_witness_handles_uneven_cover(self):
        # s2 larger than s1's chosen partners: extra right elements get
        # partnered in the second pass.
        hm = Mapping({(0, 10), (0, 11)}, INT, INT)
        witness = lists_witness(hm, cvset(0), cvset(10, 11))
        assert witness is not None
        l1, l2 = witness
        assert ListRel(hm).holds(l1, l2)
        assert CVSet(l2) == cvset(10, 11)

    def test_random_sweep(self):
        rng = random.Random(0)
        for _ in range(60):
            left = random_domain(rng, 3, INT)
            right = random_domain(rng, 3, INT, offset=50)
            hm = random_mapping_in_class(rng, "all", left, right, INT)
            pairs = list(hm.pairs())
            chosen = [rng.choice(pairs) for _ in range(rng.randint(0, 4))]
            l1 = CVList(x for x, _ in chosen)
            l2 = CVList(y for _, y in chosen)
            assert lemma_4_6_part1(hm, l1, l2)
            assert lemma_4_6_part2(hm, CVSet(l1), CVSet(l2))


class TestLiftToLists:
    """Lemma 4.9, constructively, beyond flat sets."""

    def test_nested_sets(self):
        from repro.listset.transfer import lift_to_lists
        from repro.types.ast import list_of, tvar

        hm = h()
        t = list_of(list_of(tvar("X")))
        s1 = cvset(cvset(0, 1), cvset(2))
        s2 = cvset(cvset(10, 11), cvset(12))
        pair = lift_to_lists(hm, t, s1, s2)
        assert pair is not None
        l1, l2 = pair
        assert ListRel(ListRel(hm)).holds(l1, l2)

    def test_products(self):
        from repro.listset.transfer import lift_to_lists
        from repro.types.ast import Product, list_of, tvar
        from repro.types.values import Tup

        hm = h()
        t = Product((list_of(tvar("X")), tvar("X")))
        pair = lift_to_lists(
            hm, t, Tup((cvset(0), 2)), Tup((cvset(10, 11), 12))
        )
        assert pair is not None
        (l1, a1), (l2, a2) = pair
        assert ListRel(hm).holds(l1, l2)
        assert hm.holds(a1, a2)

    def test_unrelated_returns_none(self):
        from repro.listset.transfer import lift_to_lists
        from repro.types.ast import list_of, tvar

        hm = h()
        assert lift_to_lists(hm, list_of(tvar("X")), cvset(0), cvset(12)) is None

    def test_base_type_leaf_takes_identity(self):
        # At int the values must be equal, even where h relates them.
        from repro.listset.transfer import lift_to_lists
        from repro.types.ast import tvar

        hm = Mapping({(1, 10), (5, 7)}, INT, INT)
        t = Product((tvar("X"), INT))
        assert lift_to_lists(hm, t, tup(1, 5), tup(10, 5)) == (
            tup(1, 5), tup(10, 5)
        )
        assert lift_to_lists(hm, t, tup(1, 5), tup(10, 7)) is None

    def test_type_variable_leaf_takes_h(self):
        # At X the values must be h-related, even where they are equal.
        from repro.listset.transfer import lift_to_lists
        from repro.types.ast import tvar

        hm = Mapping({(1, 10), (5, 7)}, INT, INT)
        t = Product((tvar("X"), INT))
        assert lift_to_lists(hm, t, tup(3, 5), tup(3, 5)) is None

    def test_toset_of_lift_recovers_inputs(self):
        from repro.listset.analogy import deep_toset
        from repro.listset.transfer import lift_to_lists
        from repro.types.ast import list_of, tvar

        hm = h()
        t = list_of(list_of(tvar("X")))
        s1 = cvset(cvset(0, 1), cvset(2))
        s2 = cvset(cvset(10, 11), cvset(12))
        l1, l2 = lift_to_lists(hm, t, s1, s2)
        assert deep_toset(l1, t) == s1
        assert deep_toset(l2, t) == s2


class TestTransferCheck:
    def test_append_transfer_on_instance(self, prelude):
        # Lemma 4.11 on one instance H, through the list side: lift the
        # related set inputs to related lists (Lemma 4.9), apply append,
        # and land on union's outputs by toset.
        append = prelude.value("append")[INT]
        x = tvar("X")
        hm = h()
        s1 = Tup((cvset(0, 1), cvset(2)))
        s2 = Tup((cvset(10, 11), cvset(12)))
        lifted = lift_to_lists(hm, Product((list_of(x), list_of(x))), s1, s2)
        assert lifted is not None
        l1, l2 = lifted
        out1, out2 = append(l1), append(l2)
        assert ListRel(hm).holds(out1, out2)
        assert CVSet(out1) == set_union(s1)
        assert CVSet(out2) == set_union(s2)
        assert SetRelExt(hm).holds(set_union(s1), set_union(s2))


class TestCorollary415Pipeline:
    def test_append_union(self, prelude):
        samples = [
            Tup((cvlist(0, 1), cvlist(1, 2))),
            Tup((cvlist(), cvlist(2,))),
        ]
        report = transfer_parametricity(
            "append", prelude.value("append"), poly(set_union),
            prelude.type_of("append"), samples,
        )
        assert report.transferred
        assert report.ltos and report.analogy_validated

    def test_count_card_blocked_by_analogy(self, prelude):
        samples = [cvlist(0, 0), cvlist(1)]
        report = transfer_parametricity(
            "count", prelude.value("count"), poly(cardinality),
            prelude.type_of("count"), samples,
        )
        assert report.ltos  # the *type* is fine...
        assert not report.analogy_validated  # ...the analogy is not
        assert not report.transferred

    def test_report_repr(self, prelude):
        samples = [Tup((cvlist(), cvlist()))]
        report = transfer_parametricity(
            "append", prelude.value("append"), poly(set_union),
            prelude.type_of("append"), samples,
        )
        assert "append" in repr(report)
