"""Parallel invariance/genericity sweeps over the operation catalog.

A classification sweep is a grid: (operation, lattice spec, extension
mode) cells, each an independent randomized counterexample search
(:func:`repro.genericity.witnesses.find_counterexample` constructs its
own ``random.Random(seed)`` per cell).  This module shards that grid
with :func:`repro.parallel.parallel_map`.

:class:`~repro.algebra.query.Query` objects close over lambdas and do
not pickle, so tasks carry *names*: the worker reconstructs the query
from :data:`repro.cli.OPERATION_CATALOG` and the spec from
:data:`repro.genericity.hierarchy.STANDARD_LATTICE` by name.  Cell
order matches :func:`repro.genericity.classify.classify` (``for spec in
lattice: for mode in (REL, STRONG)``), and the shared ``fn_cache`` the
serial path uses is a pure memo (it never changes verdicts or
``pairs_checked``), so :func:`render_verdicts` output is byte-identical
between ``jobs=1`` and any ``jobs=N``.

To reproduce one parallel cell serially, rerun the same sweep with
``jobs=1`` — cells never share rng state, so the failing cell replays
identically — or call :func:`run_invariance_cell` directly with the
cell's task tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .runner import parallel_map

__all__ = [
    "CellVerdict",
    "SweepTask",
    "run_invariance_cell",
    "invariance_tasks",
    "sweep_invariance",
    "tightest",
    "render_verdicts",
]

#: ``(operation, spec_name, mode, trials, seed)`` — everything a worker
#: needs to rebuild and run one grid cell, all picklable scalars.
SweepTask = tuple[str, str, str, int, int]


@dataclass(frozen=True)
class CellVerdict:
    """Picklable outcome of one (operation, spec, mode) cell.

    Mirrors :class:`repro.genericity.classify.Verdict` (``label()``
    renders the same text) but carries names instead of live spec
    objects so it can cross the process boundary.
    """

    operation: str
    spec_name: str
    mode: str
    generic: bool
    pairs_checked: int
    witness_verified: bool = False

    def label(self) -> str:
        if self.generic:
            return f"generic ({self.pairs_checked} checks)"
        mark = "verified" if self.witness_verified else "UNVERIFIED"
        return f"NOT generic (witness {mark})"


def _spec_by_name(name: str):
    from ..genericity.hierarchy import STANDARD_LATTICE

    for spec in STANDARD_LATTICE:
        if spec.name == name:
            return spec
    known = ", ".join(spec.name for spec in STANDARD_LATTICE)
    raise KeyError(f"unknown lattice spec {name!r}; choose from: {known}")


def run_invariance_cell(task: SweepTask) -> CellVerdict:
    """Run one grid cell; top-level so it pickles to worker processes.

    Imports are deferred so spawned workers pay them once, and so this
    module stays importable without dragging the whole checker stack in.
    """
    operation, spec_name, mode, trials, seed = task
    from ..cli import OPERATION_CATALOG
    from ..genericity.invariance import instantiate_at
    from ..genericity.witnesses import find_counterexample, verify_witness
    from ..types.ast import INT

    query = OPERATION_CATALOG[operation]()
    spec = _spec_by_name(spec_name)
    in_type = instantiate_at(query.input_type, INT)
    out_type = instantiate_at(query.output_type, INT)
    result = find_counterexample(
        query,
        spec,
        mode,
        trials=trials,
        seed=seed,
        input_type=in_type,
        output_type=out_type,
    )
    if result.found:
        verified = verify_witness(query, result.witness, in_type, out_type)
        return CellVerdict(
            operation, spec_name, mode, False, result.pairs_checked, verified
        )
    return CellVerdict(operation, spec_name, mode, True, result.pairs_checked)


def invariance_tasks(
    operations: Sequence[str], *, trials: int = 40, seed: int = 0
) -> list[SweepTask]:
    """The full sweep grid, in :func:`classify`'s cell order."""
    from ..genericity.hierarchy import STANDARD_LATTICE
    from ..mappings.extensions import REL, STRONG

    tasks: list[SweepTask] = []
    for operation in operations:
        for spec in STANDARD_LATTICE:
            for mode in (REL, STRONG):
                tasks.append((operation, spec.name, mode, trials, seed))
    return tasks


def sweep_invariance(
    operations: Sequence[str],
    *,
    trials: int = 40,
    seed: int = 0,
    jobs: int = 1,
    chunk_size: Optional[int] = None,
) -> list[CellVerdict]:
    """Classify every named operation over the standard lattice grid."""
    tasks = invariance_tasks(operations, trials=trials, seed=seed)
    return parallel_map(
        run_invariance_cell, tasks, jobs=jobs, chunk_size=chunk_size
    )


def tightest(
    verdicts: Sequence[CellVerdict], operation: str, mode: str
) -> Optional[str]:
    """Largest generic class name for one operation/mode (lattice order)."""
    for verdict in verdicts:
        if (
            verdict.operation == operation
            and verdict.mode == mode
            and verdict.generic
        ):
            return verdict.spec_name
    return None


def render_verdicts(verdicts: Sequence[CellVerdict]) -> str:
    """Render a sweep in the CLI ``classify`` format (stable text, used
    for the serial-vs-parallel byte-identity checks)."""
    from ..cli import OPERATION_CATALOG
    from ..mappings.extensions import REL, STRONG

    operations: list[str] = []
    for verdict in verdicts:
        if verdict.operation not in operations:
            operations.append(verdict.operation)
    lines: list[str] = []
    for operation in operations:
        query = OPERATION_CATALOG[operation]()
        lines.append(
            f"classification of {query.name} : "
            f"{query.input_type} -> {query.output_type}"
        )
        for verdict in verdicts:
            if verdict.operation != operation:
                continue
            lines.append(
                f"  {verdict.spec_name:18} {verdict.mode:6} {verdict.label()}"
            )
        for mode in (REL, STRONG):
            name = tightest(verdicts, operation, mode)
            lines.append(
                f"  tightest {mode} class: "
                f"{name if name else '(none in lattice)'}"
            )
    return "\n".join(lines)
