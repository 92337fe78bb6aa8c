"""Command-line interface.

.. code-block:: text

    python -m repro list                      # experiment ids
    python -m repro run E-2.2 [E-2.6 ...]     # run experiments, print tables
    python -m repro run --all [--jobs N]
    python -m repro classify sigma-eq         # classify an operation
    python -m repro optimize "pi[1](employees - students)"
    python -m repro explain "pi[1](employees - students)" [--mode M]
    python -m repro fuzz --seeds 200 [--jobs N]    # differential fuzz, faults too
    python -m repro recover state/ [--json]   # replay a WAL directory
    python -m repro writeup [path]            # regenerate EXPERIMENTS.md

``explain`` runs a plan on the demo HR database under the tracer and
prints an EXPLAIN ANALYZE-style per-operator tree (rows, work, cache
activity, wall time) for one executor mode
(``compiled`` or ``reference``) or both side by side; ``--json`` emits
the same trees as JSON.  The reference report bypasses the result
cache; ``--warm N`` pre-runs the plan N times, so the compiled report
shows a cache hit.

``recover`` rebuilds a database from a write-ahead-logged durability
directory (checkpoint + WAL suffix; see
:mod:`repro.durability`) and prints the recovery report with its span
tree; ``explain --wal DIR`` and ``optimize --wal DIR`` run their plan
against a recovered database instead of the demo HR one.  All three
refuse a directory that does not exist (exit 1), although the library's
``recover()`` treats one as an empty database, and print ``<command>
failed: …`` and exit 1 when the checkpoint is malformed or the log
cannot be replayed.  ``recover --dump FILE`` that cannot write FILE
fails the same way.

``fuzz`` checks the compiled engine against the reference interpreter
on random plans (:mod:`repro.engine.fuzz`); its ``faults`` and
``recovery`` scenarios do so under injected faults and at every crash
point of a write-ahead log.  Seed ``i`` plays the ``i % n``-th of the
``n`` scenarios, all ten by default or those ``--scenarios`` names.

``classify`` accepts the row names of E-TABLE1's operation catalog
(:data:`repro.genericity.catalog.PAPER_TABLE`); ``optimize`` runs the
rewriter against the demo HR catalog, prints the trace with its
genericity/parametricity justifications, runs the original and the
rewritten plan, and keeps the rewrite unless it measured more work.
``run --jobs N`` and ``fuzz --jobs N`` shard independent work units
across ``N`` worker processes (:mod:`repro.parallel`) with output
byte-identical to the serial run.

Performance is measured by the benchmark of record,
``python3 benchmarks/e2e/run.py``, described by ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from typing import Optional, Sequence

__all__ = ["main"]


def _int_at_least(text: str, minimum: int) -> int:
    """Parse an argparse count that must be at least ``minimum``."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}"
        ) from None
    if value < minimum:
        raise argparse.ArgumentTypeError(
            f"must be at least {minimum}, got {value}"
        )
    return value


def _positive_int(text: str) -> int:
    """argparse type of a count that must be at least 1: zero trials or
    seeds would report a verdict on no evidence, the demo database
    needs at least one employee, and ``--jobs`` counts worker
    processes."""
    return _int_at_least(text, 1)


def _non_negative_int(text: str) -> int:
    """argparse type of a count where 0 means none: a negative row or
    warm-up count has no meaning (``--show-rows -1`` would slice off
    the last row)."""
    return _int_at_least(text, 0)


def _recover_directory(directory: str, command: str):
    """Recover the database in ``directory`` for ``command``: the
    ``(db, report)`` pair, or ``None`` after printing ``<command>
    failed: …`` to stderr.

    The library recovers an empty database from a missing directory;
    from the command line that is almost surely a mistyped path, so
    the commands refuse one here.
    """
    from .durability import WalError, recover
    from .engine.serialize import SerializeError

    if not os.path.isdir(directory):
        print(f"{command} failed: no such directory: {directory}",
              file=sys.stderr)
        return None
    try:
        return recover(directory)
    except (OSError, SerializeError, WalError) as error:
        print(f"{command} failed: {error}", file=sys.stderr)
        return None


def _cmd_list(_args: argparse.Namespace) -> int:
    from .experiments.registry import EXPERIMENTS

    for exp_id in EXPERIMENTS:
        print(exp_id)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from .experiments.registry import EXPERIMENTS, run_all
    from .experiments.report import render

    ids = list(EXPERIMENTS) if args.all else args.ids
    if not ids:
        print("no experiment ids given (use --all)", file=sys.stderr)
        return 2
    for exp_id in ids:
        if exp_id not in EXPERIMENTS:
            print(f"unknown experiment {exp_id}", file=sys.stderr)
            return 2
    results = run_all(ids, jobs=args.jobs)
    failures = 0
    for result in results:
        print(render(result))
        print()
        failures += 0 if result.matches_paper else 1
    if failures:
        print(f"{failures} experiment(s) diverged from the paper",
              file=sys.stderr)
    return 1 if failures else 0


def _cmd_classify(args: argparse.Namespace) -> int:
    from .genericity.catalog import PAPER_TABLE
    from .genericity.classify import classify
    from .mappings.extensions import REL, STRONG

    entries = {entry.name: entry for entry in PAPER_TABLE}
    if args.operation not in entries:
        names = ", ".join(sorted(entries))
        print(f"unknown operation; choose from: {names}", file=sys.stderr)
        return 2
    query = entries[args.operation].factory()
    row = classify(query, trials=args.trials)
    label = args.operation
    if query.name != label:
        label += f" ({query.name})"
    print(f"classification of {label} : "
          f"{query.input_type} -> {query.output_type}")
    for verdict in row.verdicts:
        print(f"  {verdict.spec.name:18} {verdict.mode:6} {verdict.label()}")
    for mode in (REL, STRONG):
        tightest = row.tightest(mode)
        print(f"  tightest {mode} class: "
              f"{tightest.name if tightest else '(none in lattice)'}")
    return 0


def _plan_and_database(args: argparse.Namespace, command: str):
    """The prologue of ``optimize`` and ``explain``: parse ``args.plan``,
    open the database it runs on (recovered from ``--wal``, else the
    demo HR one) and check the plan's schema against its catalog.

    Returns ``(plan, db, recovery)``, ``recovery`` being ``None`` for
    the demo database, or the exit code after printing the error:
    2 for a parse or schema error, 1 for a failed recovery.
    """
    from .engine.workload import hr_database
    from .optimizer.parser import PlanParseError, parse_plan
    from .optimizer.schema_infer import SchemaInferenceError, infer_arity

    try:
        plan = parse_plan(args.plan)
    except PlanParseError as error:
        print(f"parse error: {error}", file=sys.stderr)
        return 2
    recovery = None
    if args.wal:
        recovered = _recover_directory(args.wal, command)
        if recovered is None:
            return 1
        db, recovery = recovered
    else:
        db = hr_database(random.Random(args.seed), employees=args.size,
                         students=args.size * 2 // 3,
                         overlap=args.size // 4)
    try:
        infer_arity(plan, db.catalog)
    except SchemaInferenceError as error:
        print(f"schema error: {error}", file=sys.stderr)
        return 2
    return plan, db, recovery


def _cmd_optimize(args: argparse.Namespace) -> int:
    from .optimizer.rewriter import Rewriter

    opened = _plan_and_database(args, "optimize")
    if isinstance(opened, int):
        return opened
    plan, db, recovery = opened
    if recovery is not None:
        print(recovery.summary())
        print()
    rewriter = Rewriter(db.catalog)
    rewritten = rewriter.optimize(plan)
    print(f"original : {plan}")
    print(f"rewritten: {rewritten}")
    for line in rewriter.explain():
        print(f"  applied: {line}")
    before = db.run(plan)
    after = db.run(rewritten)
    print(f"measured work: {before.work} -> {after.work}")
    chosen, result = (
        (rewritten, after) if after.work <= before.work else (plan, before)
    )
    print(f"chosen   : {chosen}")
    print(f"answer ({len(result.value)} rows, measured work {result.work})")
    if args.show_rows:
        for row in sorted(result.value, key=repr)[: args.show_rows]:
            print("  ", row)
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    import json

    from .obs import MODES, explain

    opened = _plan_and_database(args, "explain")
    if isinstance(opened, int):
        return opened
    plan, db, recovery = opened
    for _ in range(args.warm):
        db.run(plan)
    modes = MODES if args.mode == "all" else (args.mode,)
    # The reference report bypasses the result cache, so it always
    # shows the reference tree and leaves the compiled run to lower
    # the plan (unless --warm cached it).
    reports = [
        explain(plan, db, mode=mode, use_cache=mode != "reference")
        for mode in modes
    ]
    if args.json:
        explains = [r.to_dict() for r in reports]
        if recovery is not None:
            print(json.dumps(
                {"recovery": recovery.to_dict(), "explains": explains},
                indent=2,
            ))
        else:
            print(json.dumps(explains, indent=2))
        return 0
    if recovery is not None:
        print(recovery.render())
        print()
    for i, report in enumerate(reports):
        if i:
            print()
        print(report.render())
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .engine.fuzz import SCENARIOS, run_fuzz

    scenarios = tuple(args.scenarios) if args.scenarios else None
    unknown = [name for name in scenarios or () if name not in SCENARIOS]
    if unknown:
        print(f"unknown scenario(s): {', '.join(unknown)}; "
              f"choose from: {', '.join(SCENARIOS)}", file=sys.stderr)
        return 2
    report = run_fuzz(
        args.seeds,
        base_seed=args.base_seed,
        scenarios=scenarios,
        jobs=args.jobs,
    )
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_recover(args: argparse.Namespace) -> int:
    import json

    from .engine.serialize import save_database

    recovered = _recover_directory(args.directory, "recover")
    if recovered is None:
        return 1
    db, report = recovered
    if args.dump:
        try:
            save_database(db, args.dump)
        except OSError as error:
            print(f"recover failed: cannot write {args.dump}: "
                  f"{error.strerror or error}", file=sys.stderr)
            return 1
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
        if args.dump:
            print(f"recovered snapshot written to {args.dump}")
    return 0


def _cmd_writeup(args: argparse.Namespace) -> int:
    from .experiments.writeup import main as writeup_main

    return writeup_main([args.path] if args.path else [])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="On Genericity and Parametricity (PODS '96), executable.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiment ids").set_defaults(
        fn=_cmd_list
    )

    run_parser = sub.add_parser("run", help="run experiments")
    run_parser.add_argument("ids", nargs="*", help="experiment ids")
    run_parser.add_argument("--all", action="store_true")
    run_parser.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="worker processes (results identical to --jobs 1)",
    )
    run_parser.set_defaults(fn=_cmd_run)

    classify_parser = sub.add_parser(
        "classify", help="classify a catalog operation"
    )
    classify_parser.add_argument("operation")
    classify_parser.add_argument("--trials", type=_positive_int, default=30)
    classify_parser.set_defaults(fn=_cmd_classify)

    optimize_parser = sub.add_parser(
        "optimize", help="parse, rewrite and run a plan on the demo HR db"
    )
    optimize_parser.add_argument("plan")
    optimize_parser.add_argument("--size", type=_positive_int, default=60)
    optimize_parser.add_argument("--seed", type=int, default=0)
    optimize_parser.add_argument(
        "--show-rows", type=_non_negative_int, default=0
    )
    optimize_parser.add_argument(
        "--wal", default=None, metavar="DIR",
        help="run against a database recovered from this durability "
        "directory instead of the demo HR db",
    )
    optimize_parser.set_defaults(fn=_cmd_optimize)

    explain_parser = sub.add_parser(
        "explain",
        help="EXPLAIN ANALYZE a plan on the demo HR db (traced run)",
    )
    explain_parser.add_argument(
        "plan", nargs="?", default="pi[1](employees - students)",
        help="plan text (default: the README's demo query)",
    )
    explain_parser.add_argument(
        "--mode",
        choices=("all", "reference", "compiled"),
        default="all",
        help="executor mode, or 'all' for every mode (default)",
    )
    explain_parser.add_argument("--size", type=_positive_int, default=60)
    explain_parser.add_argument("--seed", type=int, default=0)
    explain_parser.add_argument(
        "--warm", type=_non_negative_int, default=0,
        help="pre-run the plan N times so the compiled report hits "
        "the result cache",
    )
    explain_parser.add_argument(
        "--json", action="store_true", help="emit JSON instead of text"
    )
    explain_parser.add_argument(
        "--wal", default=None, metavar="DIR",
        help="explain against a database recovered from this "
        "durability directory (prints the recovery report first)",
    )
    explain_parser.set_defaults(fn=_cmd_explain)

    fuzz_parser = sub.add_parser(
        "fuzz",
        help="differentially fuzz the compiled engine vs the reference",
    )
    fuzz_parser.add_argument("--seeds", type=_positive_int, default=50)
    fuzz_parser.add_argument("--base-seed", type=int, default=0)
    fuzz_parser.add_argument(
        "--scenarios", nargs="*", default=None,
        help="rotate the seeds through these scenarios (default: all)",
    )
    fuzz_parser.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="shard seeds across worker processes (same report)",
    )
    fuzz_parser.set_defaults(fn=_cmd_fuzz)

    recover_parser = sub.add_parser(
        "recover",
        help="rebuild a database from a WAL durability directory "
        "(checkpoint + committed log suffix) and print the report",
    )
    recover_parser.add_argument(
        "directory", help="durability directory (wal.jsonl + checkpoint)"
    )
    recover_parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    recover_parser.add_argument(
        "--dump", default=None, metavar="FILE",
        help="also save the recovered database snapshot to FILE",
    )
    recover_parser.set_defaults(fn=_cmd_recover)

    writeup_parser = sub.add_parser(
        "writeup", help="regenerate EXPERIMENTS.md"
    )
    writeup_parser.add_argument("path", nargs="?", default="")
    writeup_parser.set_defaults(fn=_cmd_writeup)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        # Flush here, so a closed stdout raises inside this block
        # rather than at interpreter exit.
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (``repro ... | head``).  Point stdout at
        # the null device so the exit-time flush stays quiet too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
