"""Deterministic multiprocess fan-out for embarrassingly parallel work.

The experiment registry and the differential fuzzer are per-instance
independent: every experiment and every fuzz seed derives its own rng
from its identity and never touches shared state.  That makes them safe
to shard across processes, *provided the harness adds no
nondeterminism of its own*.  :func:`parallel_map` guarantees that:

* **deterministic sharding** — items are split into contiguous chunks
  in input order (no work stealing, no hash partitioning);
* **chunked submission** — one executor task per chunk, not per item,
  so pickling overhead amortizes over ``chunk_size`` items;
* **ordered merge** — results are reassembled in submission order, so
  the output list is exactly ``[worker(x) for x in items]`` regardless
  of which process finished first;
* **serial reference path** — ``jobs <= 1`` runs the plain list
  comprehension in-process.  Byte-identical output between the two
  paths is the harness's contract (and is asserted by ``tests/parallel``);
* **crash resilience** — a worker process dying hard (segfault, OOM
  kill, ``os._exit``) breaks the whole :class:`~concurrent.futures.
  ProcessPoolExecutor`, not just its chunk.  The harness collects the
  chunks that finished before the crash, rebuilds the pool, and
  resubmits exactly the unfinished chunks (same contents, same chunk
  indexes — the re-shard is deterministic).  After
  ``max_chunk_retries`` crashes, a chunk runs serially in the *parent*
  process instead, so the merged output stays byte-identical to the
  serial path no matter how unreliable the workers are.  Ordinary
  worker *exceptions* are not retried — they propagate, exactly as the
  serial list comprehension would raise them.

Workers must be top-level (picklable-by-reference) functions, and both
items and results must pickle.  Objects that close over lambdas (e.g.
:class:`~repro.algebra.query.Query`) can't cross the process boundary;
ship *names* instead and reconstruct inside the worker, as the registry
does with experiment ids and the fuzzer with seeds.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar

__all__ = ["parallel_map", "chunked"]

T = TypeVar("T")
R = TypeVar("R")


def chunked(items: Sequence[T], chunk_size: int) -> Iterator[Sequence[T]]:
    """Contiguous, order-preserving chunks of ``items``."""
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    for start in range(0, len(items), chunk_size):
        yield items[start : start + chunk_size]


def _apply_chunk(
    payload: tuple[Callable[[T], R], Sequence[T], int, int, object],
) -> list[R]:
    """Worker-side: run one chunk through the worker, preserving order.

    ``fault`` (the ``chunk_fault`` hook, e.g. :class:`~repro.robustness.
    faults.WorkerCrash`) runs first, in the worker process, with the
    chunk's index and attempt number — it may kill the process.
    """
    worker, chunk, index, attempt, fault = payload
    if fault is not None:
        fault(index, attempt)
    return [worker(item) for item in chunk]


def _apply_chunk_traced(
    payload: tuple[Callable[[T], R], Sequence[T], int, int, object],
) -> tuple[list[R], dict]:
    """Like :func:`_apply_chunk`, but also ship the chunk's metrics.

    The snapshot *delta* (this chunk's contribution only) comes back,
    not the registry's absolute state — pool processes are reused
    across chunks, and absolutes would double-count earlier chunks.
    """
    from ..obs.metrics import REGISTRY, snapshot_delta

    worker, chunk, index, attempt, fault = payload
    if fault is not None:
        fault(index, attempt)
    before = REGISTRY.snapshot()
    results = [worker(item) for item in chunk]
    return results, snapshot_delta(REGISTRY.snapshot(), before)


def parallel_map(
    worker: Callable[[T], R],
    items: Iterable[T],
    *,
    jobs: int = 1,
    chunk_size: Optional[int] = None,
    merge_metrics: bool = False,
    max_chunk_retries: int = 2,
    chunk_fault=None,
) -> list[R]:
    """``[worker(x) for x in items]``, optionally sharded across processes.

    With ``jobs <= 1`` (or fewer than two items) this *is* the list
    comprehension — the serial reference path.  Otherwise items are
    split into contiguous chunks (default: ~4 chunks per worker, so a
    slow chunk can't straggle the whole run), each chunk is one
    :class:`~concurrent.futures.ProcessPoolExecutor` task, and results
    are merged back in chunk order.  ``worker`` must be a top-level
    function; items and results must pickle.

    ``merge_metrics=True`` additionally folds each worker chunk's
    :data:`repro.obs.metrics.REGISTRY` activity into the parent
    process's registry, merged in chunk order — counter totals come
    out identical to the serial run's (sums commute).  On the serial
    path the worker already writes to the parent registry, so the flag
    is a no-op.

    A chunk whose worker process *dies* (``BrokenProcessPool``) is
    resubmitted to a fresh pool up to ``max_chunk_retries`` times, then
    falls back to running serially in the parent — the merged output is
    byte-identical to the serial path either way.  Retries and
    fallbacks bump the ``robustness.parallel.*`` metrics counters.
    ``chunk_fault`` (a picklable ``fault(chunk_index, attempt)``
    callable, e.g. :class:`~repro.robustness.faults.WorkerCrash`) runs
    in the worker before each chunk — the fault hook that makes crash
    recovery testable (``tests/parallel/test_runner.py``).  The
    parent's serial fallback never invokes it.
    """
    work = list(items)
    if jobs <= 1 or len(work) <= 1:
        return [worker(item) for item in work]
    if chunk_size is None:
        chunk_size = max(1, -(-len(work) // (jobs * 4)))
    chunks = list(chunked(work, chunk_size))
    n = len(chunks)
    apply = _apply_chunk_traced if merge_metrics else _apply_chunk
    results: list = [None] * n
    deltas: list = [None] * n
    attempts = [0] * n
    pending = list(range(n))
    while pending:
        crashed: list[int] = []
        with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
            futures: list[tuple[int, object]] = []
            for i in pending:
                payload = (worker, chunks[i], i, attempts[i], chunk_fault)
                try:
                    futures.append((i, pool.submit(apply, payload)))
                except BrokenProcessPool:
                    # A worker died before this chunk even went out.
                    crashed.append(i)
            for i, future in futures:  # submission order == chunk order
                try:
                    out = future.result()
                except BrokenProcessPool:
                    # The pool is dead; chunks already collected above
                    # are safe, this one (and likely the rest) retry.
                    crashed.append(i)
                    continue
                if merge_metrics:
                    results[i], deltas[i] = out
                else:
                    results[i] = out
        if not crashed:
            break
        from ..obs.metrics import counter

        pending = []
        for i in sorted(crashed):
            attempts[i] += 1
            if attempts[i] <= max_chunk_retries:
                counter("robustness.parallel.chunk_retries")
                pending.append(i)
            else:
                # Bounded retries exhausted: compute the chunk serially
                # in the parent (no chunk_fault — the parent must
                # survive), so the merged output is still exactly the
                # serial path's.  Parent-side metrics write straight to
                # the live registry; no delta to merge.
                counter("robustness.parallel.serial_fallbacks")
                results[i] = [worker(item) for item in chunks[i]]
    if merge_metrics:
        from ..obs.metrics import REGISTRY

        for delta in deltas:  # chunk order — deterministic merge
            if delta is not None:
                REGISTRY.merge(delta)
    return [r for chunk_results in results for r in chunk_results]
