"""Physical execution layer: the plan compiler and a semantically-keyed
result cache.

See ``docs/EXECUTION.md`` for the two executors (compiled and
reference), the cache keying and invalidation rules (callables are
keyed by object, relations by content fingerprint), and the work
ledger both executors share.
"""

from .cache import CacheEntry, PlanCache, entry_seal
from .compile import CompiledPlan, compile_plan, execute_compiled
from .fingerprint import (
    annotate_plan,
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
    "relation_fingerprint",
    "semantic_cache_key",
]
