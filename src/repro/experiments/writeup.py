"""Generate EXPERIMENTS.md from actual experiment runs.

``python -m repro.experiments.writeup [path]`` runs the full registry
and writes the paper-vs-measured record for every claim.  The same
tables are printed, one experiment at a time, by ``python -m repro run
<id>``; ``python3 benchmarks/e2e/run.py --workload paper-writeup``
times the whole writeup.
"""

from __future__ import annotations

import os
import sys
import time

from .figures import figure_opt_cost, figure_search_effort
from .registry import EXPERIMENTS, run
from .report import ExperimentResult, format_table

__all__ = ["generate", "main"]

_HEADER = """\
# EXPERIMENTS — paper vs. measured

Reproduction record for *On Genericity and Parametricity* (Beeri, Milo,
Ta-Shma, PODS 1996).  The paper is a theory paper with no empirical
tables; each numbered claim (example / proposition / lemma / theorem)
is reproduced as an executable experiment.  For every claim this file
records the paper's statement, the measured behaviour, and whether they
match.  Regenerate with:

    python -m repro.experiments.writeup

or print any experiment's table, checked against the paper, with:

    python -m repro run <id>

Notes on methodology (see DESIGN.md for the full substitution table):
positive universal claims are checked on the paper's own witnesses,
exhaustively on small domains, and on randomized instance families;
negative claims are established by *found and independently re-verified
counterexamples*, which is exact.
"""


def _section(result: ExperimentResult, elapsed: float) -> str:
    status = "match" if result.matches_paper else "MISMATCH"
    lines = [
        f"## {result.exp_id} — {result.title}",
        "",
        f"*Paper claim.* {result.paper_claim}.",
        "",
        f"*Outcome.* **{status}** ({elapsed:.2f}s).",
    ]
    if result.notes:
        lines.append(f"*Notes.* {result.notes}")
    lines.append("")
    lines.append("```text")
    lines.append(format_table(result.columns, result.rows))
    lines.append("```")
    lines.append("")
    return "\n".join(lines)


def generate() -> str:
    """Run every experiment and render the full markdown document."""
    parts = [_HEADER]
    total = 0.0
    matched = 0
    sections = []
    figures = []
    for exp_id in EXPERIMENTS:
        start = time.perf_counter()
        result = run(exp_id)
        elapsed = time.perf_counter() - start
        total += elapsed
        matched += int(result.matches_paper)
        sections.append(_section(result, elapsed))
        if exp_id == "E-OPT-COST":
            figures.append(figure_opt_cost(result))
        if exp_id == "E-ABLATION-SEARCH":
            figures.append(figure_search_effort(result))
    summary = (
        f"\n**Summary: {matched}/{len(EXPERIMENTS)} claims reproduce** "
        f"(total runtime {total:.1f}s on this machine).\n"
    )
    parts.append(summary)
    parts.extend(sections)
    if figures:
        parts.append("## Figures\n")
        for figure in figures:
            parts.append("```text")
            parts.append(figure)
            parts.append("```")
            parts.append("")
    return "\n".join(parts)


def main(argv: list[str] | None = None) -> int:
    argv = argv if argv is not None else sys.argv[1:]
    path = argv[0] if argv else "EXPERIMENTS.md"
    # Check the target before the experiments run, not after.
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory) or os.path.isdir(path):
        print(f"writeup: cannot write {path}: not a file in an existing "
              "directory", file=sys.stderr)
        return 2
    text = generate()
    with open(path, "w") as handle:
        handle.write(text)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
