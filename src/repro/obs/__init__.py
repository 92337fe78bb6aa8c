"""Engine observability: tracing, metrics, EXPLAIN ANALYZE.

Three pieces (see ``docs/OBSERVABILITY.md``):

* :mod:`~repro.obs.trace` — hierarchical per-operator spans; attach a
  :class:`Tracer` via the ``tracer=`` kwarg on ``execute_reference``,
  ``execute_compiled`` or ``Database.run``.
  Zero overhead when not attached; zero observer effect when attached.
* :mod:`~repro.obs.metrics` — a process-wide :class:`MetricsRegistry`
  (counters, gauges, fixed-bucket histograms) whose snapshots merge
  deterministically across the parallel harness's worker processes.
* :mod:`~repro.obs.explain` — :func:`explain` runs a plan traced and
  renders an EXPLAIN ANALYZE-style tree (text or JSON); also the
  ``python -m repro explain`` subcommand.
"""

from .explain import MODES, ExplainReport, explain, render_span_tree
from .metrics import (
    DEFAULT_BUCKETS,
    REGISTRY,
    MetricsRegistry,
    counter,
    gauge,
    observe,
    snapshot_delta,
)
from .trace import Span, Tracer

__all__ = [
    "MODES",
    "ExplainReport",
    "explain",
    "render_span_tree",
    "DEFAULT_BUCKETS",
    "REGISTRY",
    "MetricsRegistry",
    "counter",
    "gauge",
    "observe",
    "snapshot_delta",
    "Span",
    "Tracer",
]
