"""Pinnacle sets of Z_m wr S_n and the reflection groups G(m,p,n).

Colored permutations, admissibility deciders, exact enumeration formulas,
and an exhaustive brute-force oracle that cross-checks all of them.
"""

from .admissible import (
    Admissibility,
    AdmissibilityError,
    CardinalityViolation,
    MultiplicityViolation,
    admissibility,
    canonical_witness,
    is_admissible,
    is_admissible_rec,
    is_admissible_top,
    max_pinnacles,
)
from .counting import (
    CrossCheckMismatch,
    NegativeCount,
    count_closed_alternating,
    count_closed_positive,
    count_complex,
    count_pinnacle_sets,
    count_recursion_m,
    count_recursion_n,
    count_total,
)
from .oracle import (
    BudgetExceeded,
    OracleBudget,
    OracleReport,
    PinStats,
    collect_pinnacle_sets,
    enumerate_group,
    witnesses_of,
)
from .shifts import ShiftParams, shift_perm, shift_set, unshift_perm
from .wreath import (
    ColoredValue,
    GenPerm,
    GroupParams,
    PinSet,
    color_sum,
    in_subgroup,
    inverse,
    multiply,
    peaks,
    pinnacle_set,
    value_key,
)

__version__ = "0.1.0"

__all__ = [
    "Admissibility",
    "AdmissibilityError",
    "BudgetExceeded",
    "CardinalityViolation",
    "ColoredValue",
    "CrossCheckMismatch",
    "GenPerm",
    "GroupParams",
    "MultiplicityViolation",
    "NegativeCount",
    "OracleBudget",
    "OracleReport",
    "PinSet",
    "PinStats",
    "ShiftParams",
    "admissibility",
    "canonical_witness",
    "collect_pinnacle_sets",
    "color_sum",
    "count_closed_alternating",
    "count_closed_positive",
    "count_complex",
    "count_pinnacle_sets",
    "count_recursion_m",
    "count_recursion_n",
    "count_total",
    "enumerate_group",
    "in_subgroup",
    "inverse",
    "is_admissible",
    "is_admissible_rec",
    "is_admissible_top",
    "max_pinnacles",
    "multiply",
    "peaks",
    "pinnacle_set",
    "shift_perm",
    "shift_set",
    "unshift_perm",
    "value_key",
    "witnesses_of",
]
