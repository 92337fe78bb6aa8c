"""Tests for the classification machinery (the Section 3 table)."""

import dataclasses

import pytest

from repro.algebra.operators import (
    eq_adom,
    even_query,
    hat_select_eq,
    projection,
    select_eq,
    self_cross,
)
from repro.genericity.classify import classification_table, classify
from repro.mappings.extensions import REL, STRONG


class TestClassify:
    def test_projection_generic_everywhere(self):
        row = classify(projection((0,), 2), trials=10)
        assert all(v.generic for v in row.verdicts)

    def test_selection_profile(self):
        row = classify(select_eq(0, 1, 2), trials=40)
        assert not row.cell("all", REL).generic
        assert not row.cell("functional", REL).generic
        assert row.cell("injective", REL).generic
        assert row.cell("bijective", STRONG).generic

    def test_negative_verdicts_carry_verified_witnesses(self):
        row = classify(select_eq(0, 1, 2), trials=40)
        for verdict in row.verdicts:
            if not verdict.generic:
                assert verdict.witness_verified

    def test_tightest_class(self):
        row = classify(select_eq(0, 1, 2), trials=40)
        tightest = row.tightest(REL)
        assert tightest is not None
        assert tightest.name == "injective"
        row2 = classify(projection((0,), 2), trials=10)
        assert row2.tightest(REL).name == "all"

    def test_eq_adom_mode_split(self):
        row = classify(eq_adom(), trials=60)
        assert row.cell("all", REL).generic
        assert not row.cell("all", STRONG).generic

    def test_hat_select_strong_generic(self):
        row = classify(hat_select_eq(0, 1, 2), trials=40)
        assert row.cell("all", STRONG).generic
        assert not row.cell("all", REL).generic

    def test_unknown_cell_raises(self):
        row = classify(projection((0,), 2), trials=5)
        with pytest.raises(KeyError):
            row.cell("nope", REL)

    def test_verdict_labels(self):
        row = classify(select_eq(0, 1, 2), trials=40)
        labels = {v.label() for v in row.verdicts}
        assert any("NOT generic" in label for label in labels)
        assert any(label.startswith("generic") for label in labels)


class TestTable:
    def test_table_over_catalog(self):
        rows = classification_table(
            [projection((0,), 2), self_cross()], trials=8
        )
        assert len(rows) == 2
        assert {r.query_name for r in rows} == {"pi[1]", "RxR"}

    def test_table_equals_one_query_classify(self):
        # One stream per input type and cell must give every row the
        # verdicts its own classify() sweep gives, including a query
        # that shares its name (not its memo) with another.
        catalog = [
            projection((0,), 2),
            select_eq(0, 1, 2),
            even_query(),
            eq_adom(),
            dataclasses.replace(select_eq(0, 1, 2), name="pi[1]"),
            hat_select_eq(0, 1, 2),
        ]
        rows = classification_table(catalog, trials=12, seed=4)
        assert [r.query_name for r in rows] == [q.name for q in catalog]
        for query, row in zip(catalog, rows):
            alone = classify(query, trials=12, seed=4)
            assert [
                (v.spec.name, v.mode, v.generic, v.pairs_checked,
                 v.witness_verified)
                for v in row.verdicts
            ] == [
                (v.spec.name, v.mode, v.generic, v.pairs_checked,
                 v.witness_verified)
                for v in alone.verdicts
            ]
        assert rows[0].tightest(REL).name == "all"
        assert rows[4].tightest(REL).name == "injective"
