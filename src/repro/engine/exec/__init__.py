"""Physical execution layer: the plan compiler and a semantically-keyed
result cache.

See ``docs/EXECUTION.md`` for the two executors (compiled and
reference), the cache keying and invalidation rules (including the
callable registry that enforces the predicate-name invariant), and
the work ledger both executors share.
"""

from .cache import CacheEntry, PlanCache, entry_seal
from .compile import CompiledPlan, compile_plan, execute_compiled
from .fingerprint import (
    annotate_plan,
    callable_identity,
    relation_fingerprint,
    semantic_cache_key,
)

__all__ = [
    "CacheEntry",
    "PlanCache",
    "entry_seal",
    "CompiledPlan",
    "compile_plan",
    "execute_compiled",
    "annotate_plan",
    "callable_identity",
    "relation_fingerprint",
    "semantic_cache_key",
]
