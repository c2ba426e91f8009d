"""Pinnacle sets of Z_m wr S_n and the reflection groups G(m,p,n).

Colored permutations, admissibility deciders, exact enumeration formulas,
and an exhaustive brute-force oracle that cross-checks all of them.

Importing the package loads none of its modules.  Each exported name binds
on first access, importing the module it lives in, so a process loads only
what it uses: ``pinnacles check`` never compiles the counting formulas or
the oracle.
"""

import importlib

__version__ = "0.1.0"

# every exported name, by the module that defines it
_EXPORTS = {
    "admissible": ("Admissibility", "AdmissibilityError", "CardinalityViolation",
                   "MultiplicityViolation", "admissibility", "canonical_witness",
                   "is_admissible", "is_admissible_rec", "is_admissible_top"),
    "counting": ("CrossCheckMismatch", "NegativeCount", "count_closed_alternating",
                 "count_closed_positive", "count_complex", "count_pinnacle_sets",
                 "count_recursion_m", "count_recursion_n", "count_total"),
    "oracle": ("BudgetExceeded", "OracleBudget", "OracleReport", "PinStats",
               "collect_pinnacle_sets"),
    "shifts": ("ShiftParams", "shift_perm", "shift_set"),
    "wreath": ("ColoredValue", "GenPerm", "GroupParams", "PinSet", "color_sum", "in_subgroup",
               "inverse", "max_pinnacles", "multiply", "peaks", "pinnacle_set", "value_rank"),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
