#!/usr/bin/env python3
"""Classify the paper's operation catalog by genericity.

Regenerates the Section 3 picture as one table: for each operation of
``PAPER_TABLE`` (E-TABLE1's rows, labelled with the catalog names that
``repro classify`` takes), its verdict in every (mapping class,
extension mode) cell, and the tightest class per mode.  Also
demonstrates the paper's *inexpressibility* technique: `even` and
``eq_adom`` land outside the classes the fully generic sublanguage
inhabits, hence cannot be expressed in it.

Run with:  python examples/classification_table.py
"""

from repro.experiments.report import format_table
from repro.genericity.catalog import PAPER_TABLE
from repro.genericity.classify import classification_table
from repro.mappings.extensions import REL, STRONG


def main() -> None:
    catalog = [entry.factory() for entry in PAPER_TABLE]
    print("Classifying", len(catalog), "operations "
          "(this sweeps 5 mapping classes x 2 modes each)...")
    rows = classification_table(catalog, trials=30)
    named = dict(zip((entry.name for entry in PAPER_TABLE), rows))

    spec_names = [v.spec.name for v in rows[0].verdicts if v.mode == REL]
    columns = ["operation"] + [f"{s}/{m}" for s in spec_names for m in (REL, STRONG)]
    table_rows = []
    for name, row in named.items():
        cells = [name]
        for spec_name in spec_names:
            for mode in (REL, STRONG):
                cells.append("yes" if row.cell(spec_name, mode).generic else "NO")
        table_rows.append(tuple(cells))
    print(format_table(columns, table_rows))

    print()
    for name, row in named.items():
        for mode in (REL, STRONG):
            tightest = row.tightest(mode)
            label = tightest.name if tightest else "(none in lattice)"
            print(f"  tightest {mode:6} class for {name:18} : {label}")

    print()
    print("Inexpressibility (Section 1 / Chandra's technique):")
    print("  every query in the {x, Pi, U} sublanguage is fully generic;")
    even_row = named["even"]
    if not even_row.cell("all", REL).generic:
        print("  `even` is NOT rel-fully generic -> `even` is not "
              "expressible in that sublanguage.")
    eq_row = named["eq_adom"]
    if not eq_row.cell("all", STRONG).generic:
        print("  `eq_adom` is NOT strong-fully generic -> not expressible "
              "in any strong-fully-generic language (Prop 3.5).")


if __name__ == "__main__":
    main()
