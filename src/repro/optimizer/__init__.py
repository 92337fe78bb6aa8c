"""Query optimization via genericity/parametricity (paper Section 4.4)."""

from .constraints import (
    Catalog,
    RelationInfo,
    base_relations,
    check_key_on_instance,
    projection_injective_on,
)
from .plan import (
    Difference,
    ExecutionResult,
    Intersect,
    Join,
    MapNode,
    Plan,
    Product,
    Project,
    Scan,
    Select,
    Union,
    execute,
    execute_reference,
    tuple_weight,
)
from .parser import PlanParseError, parse_plan
from .schema_infer import (
    SchemaInferenceError,
    infer_arity,
    plan_type,
)
from .rewriter import Rewriter, RewriteTrace, verify_equivalence
from .rules import DEFAULT_RULES, RewriteRule

__all__ = [name for name in dir() if not name.startswith("_")]
