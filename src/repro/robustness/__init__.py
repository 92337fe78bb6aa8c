"""Fault injection and graceful degradation.

``faults`` supplies the deterministic adversary: seeded fault plans,
the injector threaded through the compiled executor, the plan cache
and the write-ahead log, and the worker-crash hook of the parallel
harness.  The ``faults`` and ``recovery`` scenarios of the
differential fuzz harness (:mod:`repro.engine.fuzz`) run random
plans and mutation scripts under them and check that the engine
degrades and recovers instead of diverging.  See
``docs/ROBUSTNESS.md``.
"""

from .faults import (
    FAULT_SITES,
    FaultInjector,
    FaultPlan,
    InjectedFault,
    InjectedIOFault,
    WorkerCrash,
)

__all__ = [
    "FAULT_SITES",
    "FaultInjector",
    "FaultPlan",
    "InjectedFault",
    "InjectedIOFault",
    "WorkerCrash",
]
