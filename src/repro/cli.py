"""Command-line interface.

.. code-block:: text

    python -m repro list                      # experiment ids
    python -m repro run E-2.2 [E-2.6 ...]     # run experiments, print tables
    python -m repro run --all [--jobs N]
    python -m repro classify sigma_eq [--jobs N]   # classify an operation
    python -m repro optimize "pi[1](employees - students)"
    python -m repro explain "pi[1](employees - students)" [--mode M]
    python -m repro fuzz --seeds 200 [--jobs N]    # differential fuzz
    python -m repro chaos --seeds 200         # fuzz under injected faults
    python -m repro recover state/ [--json]   # replay a WAL directory
    python -m repro bench [--out FILE] [--quick]   # benchmark suites
    python -m repro writeup [path]            # regenerate EXPERIMENTS.md

``explain`` runs a plan on the demo HR database under the tracer and
prints an EXPLAIN ANALYZE-style per-operator tree (rows, work, cache
activity, index shortcuts, wall time) for one executor mode
(``compiled`` or ``reference``) or both side by side; ``--json`` emits the same trees as JSON and
``--warm N`` pre-runs the plan N times so cache hits show up.

``recover`` rebuilds a database from a write-ahead-logged durability
directory (checkpoint + committed WAL suffix; see
:mod:`repro.durability`) and prints the recovery report with its span
tree; ``explain --wal DIR`` and ``optimize --wal DIR`` run their plan
against a recovered database instead of the demo HR one.

``classify`` accepts the named operations of the built-in catalog;
``optimize`` runs the rewriter against the demo HR catalog and prints
the trace with its genericity/parametricity justifications.  Every
``--jobs N`` shards independent work units across ``N`` worker
processes (:mod:`repro.parallel`) with output byte-identical to the
serial run.
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import Callable, Optional, Sequence

from .algebra.operators import (
    eq_adom,
    even_query,
    hat_select_eq,
    projection,
    select_eq,
    self_compose,
    self_cross,
    union_op,
)
from .algebra.query import Query

__all__ = ["main", "OPERATION_CATALOG"]

#: Named operations the ``classify`` subcommand understands.
OPERATION_CATALOG: dict[str, Callable[[], Query]] = {
    "projection": lambda: projection((0,), 2),
    "sigma_eq": lambda: select_eq(0, 1, 2),
    "sigma_hat": lambda: hat_select_eq(0, 1, 2),
    "cross": self_cross,
    "compose": self_compose,
    "union": union_op,
    "eq_adom": eq_adom,
    "even": even_query,
}


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
    from .genericity.classify import classify
    from .mappings.extensions import REL, STRONG

    if args.operation not in OPERATION_CATALOG:
        names = ", ".join(sorted(OPERATION_CATALOG))
        print(f"unknown operation; choose from: {names}", file=sys.stderr)
        return 2
    if args.jobs > 1:
        # Parallel path: shard the (spec, mode) grid across processes.
        # Renders the exact text of the serial path below.
        from .parallel import render_verdicts, sweep_invariance

        verdicts = sweep_invariance(
            [args.operation], trials=args.trials, jobs=args.jobs
        )
        print(render_verdicts(verdicts))
        return 0
    query = OPERATION_CATALOG[args.operation]()
    row = classify(query, trials=args.trials)
    print(f"classification of {query.name} : "
          f"{query.input_type} -> {query.output_type}")
    for verdict in row.verdicts:
        print(f"  {verdict.spec.name:18} {verdict.mode:6} {verdict.label()}")
    for mode in (REL, STRONG):
        tightest = row.tightest(mode)
        print(f"  tightest {mode} class: "
              f"{tightest.name if tightest else '(none in lattice)'}")
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    from .engine.workload import hr_database
    from .optimizer.cost import Stats, choose_plan
    from .optimizer.parser import PlanParseError, parse_plan
    from .optimizer.rewriter import Rewriter

    try:
        plan = parse_plan(args.plan)
    except PlanParseError as error:
        print(f"parse error: {error}", file=sys.stderr)
        return 2
    if args.wal:
        from .durability import recover

        db, recovery = recover(args.wal)
        print(recovery.summary())
        print()
    else:
        db = hr_database(random.Random(args.seed), employees=args.size,
                         students=args.size * 2 // 3,
                         overlap=args.size // 4)
    from .optimizer.schema_infer import SchemaInferenceError, infer_arity

    try:
        infer_arity(plan, db.catalog)
    except SchemaInferenceError as error:
        print(f"schema error: {error}", file=sys.stderr)
        return 2
    rewriter = Rewriter(db.catalog)
    stats = Stats.from_database(db)
    chosen, before, after = choose_plan(plan, db.catalog, stats, rewriter)
    print(f"original : {plan}")
    print(f"rewritten: {rewriter.optimize(plan)}")
    for line in rewriter.explain():
        print(f"  applied: {line}")
    print(f"estimated work: {before.work:.0f} -> {after.work:.0f}")
    print(f"chosen   : {chosen}")
    result = db.run(chosen)
    print(f"answer ({len(result.value)} rows, measured work {result.work})")
    if args.show_rows:
        for row in sorted(result.value, key=repr)[: args.show_rows]:
            print("  ", row)
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    import json

    from .engine.workload import hr_database
    from .obs import MODES, explain
    from .optimizer.parser import PlanParseError, parse_plan

    try:
        plan = parse_plan(args.plan)
    except PlanParseError as error:
        print(f"parse error: {error}", file=sys.stderr)
        return 2
    recovery = None
    if args.wal:
        from .durability import recover

        db, recovery = recover(args.wal)
    else:
        db = hr_database(random.Random(args.seed), employees=args.size,
                         students=args.size * 2 // 3,
                         overlap=args.size // 4)
    from .optimizer.schema_infer import SchemaInferenceError, infer_arity

    try:
        infer_arity(plan, db.catalog)
    except SchemaInferenceError as error:
        print(f"schema error: {error}", file=sys.stderr)
        return 2
    for _ in range(args.warm):
        db.run(plan)
    modes = MODES if args.mode == "all" else (args.mode,)
    reports = [
        explain(plan, db, mode=mode) for mode in modes
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
    from .engine.fuzz import run_fuzz

    scenarios = tuple(args.scenarios) if args.scenarios else None
    report = run_fuzz(
        args.seeds,
        base_seed=args.base_seed,
        deep_every=args.deep_every,
        scenarios=scenarios,
        jobs=args.jobs,
    )
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .robustness import run_chaos

    report = run_chaos(
        args.seeds,
        base_seed=args.base_seed,
        crash_every=args.crash_every,
    )
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_recover(args: argparse.Namespace) -> int:
    import json

    from .durability import recover
    from .engine.serialize import SerializeError, save_database

    try:
        db, report = recover(args.directory)
    except (OSError, SerializeError) as error:
        print(f"recover failed: {error}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    if args.dump:
        save_database(db, args.dump)
        if not args.json:
            print(f"recovered snapshot written to {args.dump}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import main as bench_main

    argv = ["--out", args.out]
    if args.quick:
        argv.append("--quick")
    if args.skip_eperf:
        argv.append("--skip-eperf")
    argv += ["--jobs", str(args.jobs)]
    return bench_main(argv)


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
        "--jobs", type=int, default=1,
        help="worker processes (results identical to --jobs 1)",
    )
    run_parser.set_defaults(fn=_cmd_run)

    classify_parser = sub.add_parser(
        "classify", help="classify a catalog operation"
    )
    classify_parser.add_argument("operation")
    classify_parser.add_argument("--trials", type=int, default=30)
    classify_parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the lattice sweep (same output)",
    )
    classify_parser.set_defaults(fn=_cmd_classify)

    optimize_parser = sub.add_parser(
        "optimize", help="parse, rewrite and run a plan on the demo HR db"
    )
    optimize_parser.add_argument("plan")
    optimize_parser.add_argument("--size", type=int, default=60)
    optimize_parser.add_argument("--seed", type=int, default=0)
    optimize_parser.add_argument("--show-rows", type=int, default=0)
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
    explain_parser.add_argument("--size", type=int, default=60)
    explain_parser.add_argument("--seed", type=int, default=0)
    explain_parser.add_argument(
        "--warm", type=int, default=0,
        help="pre-run the plan N times so cache hits are visible",
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
    fuzz_parser.add_argument("--seeds", type=int, default=50)
    fuzz_parser.add_argument("--base-seed", type=int, default=0)
    fuzz_parser.add_argument(
        "--deep-every", type=int, default=10,
        help="run the deep-chain scenario every Nth seed (0 disables)",
    )
    fuzz_parser.add_argument(
        "--scenarios", nargs="*", default=None,
        help="restrict to named scenarios (default: all)",
    )
    fuzz_parser.add_argument(
        "--jobs", type=int, default=1,
        help="shard seeds across worker processes (same report)",
    )
    fuzz_parser.set_defaults(fn=_cmd_fuzz)

    chaos_parser = sub.add_parser(
        "chaos",
        help="run the fuzz matrix under injected faults (degradation "
        "must absorb every fault with zero divergences)",
    )
    chaos_parser.add_argument("--seeds", type=int, default=50)
    chaos_parser.add_argument("--base-seed", type=int, default=0)
    chaos_parser.add_argument(
        "--crash-every", type=int, default=25,
        help="run the worker-crash scenario every Nth seed (0 disables)",
    )
    chaos_parser.set_defaults(fn=_cmd_chaos)

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

    bench_parser = sub.add_parser(
        "bench", help="run the benchmark suites and write a BENCH json"
    )
    bench_parser.add_argument(
        "--out", default="BENCH_PR10.json",
        help="output path (default: BENCH_PR10.json)",
    )
    bench_parser.add_argument(
        "--quick", action="store_true",
        help="small sizes / few repeats, for CI smoke",
    )
    bench_parser.add_argument(
        "--skip-eperf", action="store_true",
        help="skip the pytest-based micro-benchmark tier",
    )
    bench_parser.add_argument(
        "--jobs", type=int, default=0,
        help="worker processes for the parallel suites (0 = all cores)",
    )
    bench_parser.set_defaults(fn=_cmd_bench)

    writeup_parser = sub.add_parser(
        "writeup", help="regenerate EXPERIMENTS.md"
    )
    writeup_parser.add_argument("path", nargs="?", default="")
    writeup_parser.set_defaults(fn=_cmd_writeup)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
