"""Complex-value and 2nd-order type system (paper Sections 2 and 4).

Public surface: the type AST (:mod:`repro.types.ast`), value wrappers
(:mod:`repro.types.values`), value typing (:mod:`repro.types.typecheck`),
a concrete type syntax (:mod:`repro.types.parser`) and signatures with
interpreted symbols (:mod:`repro.types.signatures`).
"""

from .ast import (
    BOOL,
    FLOAT,
    INT,
    STR,
    UNIT,
    BagType,
    BaseType,
    ForAll,
    FuncType,
    ListType,
    Product,
    SetType,
    Type,
    TypeError_,
    TypeVar,
    alpha_equal,
    bag_of,
    contains_constructor,
    forall,
    free_type_vars,
    func,
    list_of,
    product,
    set_of,
    strip_foralls,
    substitute,
    subtypes,
    tvar,
)
from .parser import ParseError, parse_type
from .signatures import Interpreted, Signature, standard_signature
from .typecheck import check_value
from .values import (
    CVBag,
    CVList,
    CVSet,
    Tup,
    Value,
    ValueError_,
    atoms_of,
    cvbag,
    cvlist,
    cvset,
    is_atom,
    map_atoms,
    tup,
    value_depth,
)

__all__ = [name for name in dir() if not name.startswith("_")]
