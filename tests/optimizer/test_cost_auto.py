"""Cost statistics drawn from a live database.

Pins ``Stats.from_database`` (real cardinalities, cached widths and
per-column distinct counts) and selectivity clamping on degenerate
catalogs, which keeps ``estimate`` finite and non-negative.
"""

from repro.engine.database import Database
from repro.optimizer.cost import (
    Stats,
    _clamp_selectivity,
    estimate,
)
from repro.optimizer.plan import (
    Difference,
    Join,
    Scan,
    Union,
)
from repro.types.values import CVSet, Tup


class TestStatsFromDatabase:
    def test_real_cardinalities_and_widths(self):
        db = Database()
        db.create("r", 3)
        db.insert("r", [(i, i % 2, str(i)) for i in range(7)])
        stats = Stats.from_database(db)
        assert stats.rows["r"] == 7
        assert stats.widths["r"] == 3

    def test_per_column_distincts(self):
        db = Database()
        db.create("r", 2)
        db.insert("r", [(i, i % 3) for i in range(9)])
        stats = Stats.from_database(db)
        assert stats.distincts["r"] == {0: 9, 1: 3}

    def test_atom_rows_skipped_in_distincts(self):
        db = Database()
        db.create("r", 1)
        db["r"] = CVSet({Tup((1,)), Tup((2,)), "atom"})
        stats = Stats.from_database(db)
        assert stats.rows["r"] == 3
        assert stats.widths["r"] >= 1
        assert stats.distincts["r"].get(0, 0) <= 3

    def test_empty_relation_keeps_sane_floors(self):
        db = Database()
        db.create("empty", 2)
        stats = Stats.from_database(db)
        assert stats.rows["empty"] == 0
        assert stats.widths["empty"] >= 1
        est = estimate(Scan("empty"), stats)
        assert est.rows == 0 and est.width >= 1

    def test_distincts_feed_join_estimates(self):
        """With measured distinct counts the equi-join estimate uses
        1/max(d_l, d_r) instead of the one-match-per-row guess."""
        db = Database()
        db.create("l", 2)
        db.insert("l", [(i % 4, i) for i in range(16)])
        db.create("r", 2)
        db.insert("r", [(i % 4, i) for i in range(8)])
        stats = Stats.from_database(db)
        with_d = estimate(Join(((0, 0),), Scan("l"), Scan("r")), stats)
        without = estimate(
            Join(((0, 0),), Scan("l"), Scan("r")),
            Stats(dict(stats.rows), dict(stats.widths)),
        )
        # 16*8/4 = 32 matching pairs vs the heuristic's 16.
        assert with_d.rows > without.rows


class TestSelectivityClamp:
    def test_clamps_zero_negative_and_nan(self):
        assert _clamp_selectivity(0.0) == 1e-6
        assert _clamp_selectivity(-3.0) == 1e-6
        assert _clamp_selectivity(float("nan")) == 1e-6

    def test_clamps_above_one(self):
        assert _clamp_selectivity(7.5) == 1.0

    def test_passes_normal_values(self):
        assert _clamp_selectivity(0.33) == 0.33

    def test_degenerate_catalog_never_negative(self):
        """All-empty stats still estimate finite non-negative work."""
        stats = Stats({"r": 0, "s": 0}, {"r": 1, "s": 1})
        plan = Difference(Union(Scan("r"), Scan("s")), Scan("r"))
        est = estimate(plan, stats)
        assert est.rows >= 0 and est.work >= 0
