"""List-to-set parametricity transfer (paper Section 4.2)."""

from .analogy import (
    AnalogyError,
    analogous,
    deep_toset,
    toset,
)
from .setfuncs import (
    cardinality,
    poly,
    set_filter,
    set_ins,
    set_union,
)
from .transfer import (
    TransferReport,
    lemma_4_6_part1,
    lemma_4_6_part2,
    lift_to_lists,
    lists_witness,
    transfer_parametricity,
)
from .typeclasses import (
    is_l_to_s,
    is_ltos,
    is_s_to_l,
    to_set_type,
)

__all__ = [name for name in dir() if not name.startswith("_")]
