#!/usr/bin/env python3
"""Benchmark runner shim.

The suites live in :mod:`repro.bench` (importable, also reachable as
``python -m repro bench``); this script only sets up ``sys.path`` for
in-repo use:

    PYTHONPATH=src python benchmarks/run_bench.py [--skip-eperf] [--quick]

Writes ``BENCH_PR13.json`` by default; see ``repro.bench --help`` for
the full option list and ``benchmarks/compare_bench.py`` for the
regression gate over two such files.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
