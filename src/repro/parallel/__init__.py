"""Deterministic multiprocess sweep harness.

:func:`parallel_map` is the primitive (contiguous chunking, ordered
merge, serial reference path at ``jobs <= 1``);
:mod:`~repro.parallel.sweeps` applies it to the genericity
classification grid.  The contract everywhere: ``jobs=N`` output is
byte-identical to ``jobs=1`` output.  See ``docs/EXECUTION.md``.
"""

from .runner import chunked, default_jobs, parallel_map
from .sweeps import (
    CellVerdict,
    invariance_tasks,
    render_verdicts,
    run_invariance_cell,
    sweep_invariance,
    tightest,
)

__all__ = [
    "chunked",
    "default_jobs",
    "parallel_map",
    "CellVerdict",
    "invariance_tasks",
    "render_verdicts",
    "run_invariance_cell",
    "sweep_invariance",
    "tightest",
]
