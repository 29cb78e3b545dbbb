"""Exact counting of multiset words by descent set.

A word holding each of the values 1..n exactly m times has a descent at
every position where it strictly drops.  This package counts the words with
a prescribed descent set by four independent routes (full enumeration,
prefix enumeration, a recurrence whose levels insert the values into the
free positions, and a ribbon determinant filled row block by row block),
computes the value the count stabilizes to as the multiplicity grows, and
analyzes that stabilized value's coefficients over shifted binomial bases.
Everything is exact integer arithmetic; the routes cross-check each other
in the verify suite.
"""

from .core import BudgetExceededError, ConsistencyError, DescentSet, DomainError
from .formulas import (
    descent_count,
    last_fixed_formula,
    stabilization_point,
    stable_descent_count,
)
from .oracle import (
    EnumerationBudget,
    count_coeff_witnesses,
    count_naive,
    count_prefix,
    witness_counts,
)
from .polybasis import extract_coeffs, shift_basis
from .schur import count_via_jacobi_trudi, jacobi_trudi_terms, rect_coeff, ribbon_shape

__version__ = "0.1.0"

# What the README and the demos import from the package, the errors and the
# budget; every other name is imported from its own module.
__all__ = [
    "BudgetExceededError",
    "ConsistencyError",
    "DescentSet",
    "DomainError",
    "EnumerationBudget",
    "count_coeff_witnesses",
    "count_naive",
    "count_prefix",
    "count_via_jacobi_trudi",
    "descent_count",
    "extract_coeffs",
    "jacobi_trudi_terms",
    "last_fixed_formula",
    "rect_coeff",
    "ribbon_shape",
    "shift_basis",
    "stabilization_point",
    "stable_descent_count",
    "witness_counts",
]
