"""Relational mappings and their extensions (paper Sections 2 and 4.1)."""

from .extensions import (
    REL,
    STRONG,
    BagRelExt,
    BagStrongExt,
    ExtensionMode,
    ListRel,
    ProductRel,
    SetRelExt,
    SetStrongExt,
    extend_along,
)
from .families import (
    ConstantSpec,
    MappingFamily,
    preserves_constant,
    preserves_function,
    preserves_predicate,
    strictly_preserves_constant,
)
from .function_maps import ForAllRel, FuncRel, PolyValue
from .generators import (
    MAPPING_CLASSES,
    all_mappings_between,
    random_bijective_mapping,
    random_domain,
    random_functional_mapping,
    random_injective_mapping,
    random_mapping,
    random_mapping_in_class,
    random_relation_value,
    random_total_surjective_mapping,
    random_value,
)
from .mapping import (
    Budget,
    ConstantGraphRel,
    IdentityRel,
    Mapping,
    Rel,
    Unenumerable,
)

__all__ = [name for name in dir() if not name.startswith("_")]
