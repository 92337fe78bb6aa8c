"""In-memory database engine, physical execution layer and workloads."""

from .database import Database, SchemaError
from .exec import (
    CacheEntry,
    PlanCache,
    execute_compiled,
    relation_fingerprint,
    semantic_cache_key,
)
from .fuzz import Divergence, FuzzReport, run_fuzz
from .serialize import (
    database_from_json,
    database_to_json,
    load_database,
    save_database,
    value_from_json,
    value_to_json,
)
from .workload import (
    hr_database,
    layered_graph,
    paper_h_pairs,
    paper_r1,
    paper_r2,
    paper_r3,
    random_database,
    random_graph,
    random_plan,
)

__all__ = [name for name in dir() if not name.startswith("_")]
