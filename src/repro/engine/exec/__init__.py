"""Physical execution layer: the plan compiler and a semantically-keyed
result cache.

See ``docs/EXECUTION.md`` for the two executors (compiled and
reference), the cache keying and invalidation rules (including the
callable registry that enforces the predicate-name invariant), the
depth rule, and how work accounting maps onto the Section 4.4 cost
model.
"""

from .cache import CacheEntry, PlanCache, entry_seal
from .compile import (
    MAX_PIPELINE_DEPTH,
    CompiledPlan,
    compile_plan,
    execute_compiled,
    plan_depth,
)
from .fingerprint import (
    annotate_plan,
    callable_identity,
    relation_fingerprint,
    semantic_cache_key,
)
from .operators import node_label

__all__ = [
    "CacheEntry",
    "PlanCache",
    "entry_seal",
    "MAX_PIPELINE_DEPTH",
    "CompiledPlan",
    "compile_plan",
    "execute_compiled",
    "plan_depth",
    "annotate_plan",
    "callable_identity",
    "relation_fingerprint",
    "semantic_cache_key",
    "node_label",
]
