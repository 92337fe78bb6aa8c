"""Deterministic multiprocess fan-out.

:func:`parallel_map` is the primitive (contiguous chunking, ordered
merge, serial reference path at ``jobs <= 1``); ``run --jobs`` shards
the experiment registry with it and ``fuzz --jobs`` the fuzz seeds.
The contract everywhere: ``jobs=N`` output is byte-identical to
``jobs=1`` output.  See ``docs/EXECUTION.md``.
"""

from .runner import chunked, parallel_map

__all__ = ["chunked", "parallel_map"]
