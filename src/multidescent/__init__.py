"""Exact counting of multiset words by descent set.

A word holding each of the values 1..n exactly m times has a descent at
every position where it strictly drops.  This package counts the words with
a prescribed descent set by four independent routes (full enumeration,
prefix enumeration, a content-split recurrence, and a ribbon determinant),
computes the value the count stabilizes to as the multiplicity grows, and
analyzes that stabilized value's coefficients over shifted binomial bases.
Everything is exact integer arithmetic; the routes cross-check each other
in the verify suite.
"""

from .core import (
    BudgetExceededError,
    ConsistencyError,
    DescentSet,
    DomainError,
    block_sums,
    compositions,
    descent_set,
)
from .formulas import (
    binom_poly,
    bounded_sequence_count,
    descent_count,
    last_fixed_formula,
    stabilization_point,
    stable_descent_count,
)
from .oracle import (
    DEFAULT_BUDGET,
    EnumerationBudget,
    count_coeff_witnesses,
    count_content,
    count_last_fixed,
    count_naive,
    count_onto_full,
    count_onto_upper,
    count_prefix,
)
from .polybasis import (
    BinomialBasisPoly,
    Check,
    Report,
    check_prefix_signs,
    check_window,
    extract_coeffs,
    shift_basis,
    sign_survey,
)
from .schur import (
    Partition,
    RibbonShape,
    count_via_jacobi_trudi,
    jacobi_trudi_terms,
    rect_coeff,
    ribbon_shape,
)

__version__ = "0.1.0"

__all__ = [
    "BinomialBasisPoly",
    "BudgetExceededError",
    "Check",
    "ConsistencyError",
    "DEFAULT_BUDGET",
    "DescentSet",
    "DomainError",
    "EnumerationBudget",
    "Partition",
    "Report",
    "RibbonShape",
    "binom_poly",
    "block_sums",
    "bounded_sequence_count",
    "check_prefix_signs",
    "check_window",
    "compositions",
    "count_coeff_witnesses",
    "count_content",
    "count_last_fixed",
    "count_naive",
    "count_onto_full",
    "count_onto_upper",
    "count_prefix",
    "count_via_jacobi_trudi",
    "descent_count",
    "descent_set",
    "extract_coeffs",
    "jacobi_trudi_terms",
    "last_fixed_formula",
    "rect_coeff",
    "ribbon_shape",
    "shift_basis",
    "sign_survey",
    "stabilization_point",
    "stable_descent_count",
]
