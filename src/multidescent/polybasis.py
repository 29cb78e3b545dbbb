"""Shifted binomial bases for the stabilized count.

A vector (c_0, ..., c_d) at offset k represents the polynomial
sum_i c_i * binom(n + k, i).  The stabilized count has integer coefficients
at every offset; the offset -1 base is the one whose coefficients directly
count witness words, and from offset 0 upward a negative coefficient always
appears.  This module extracts and shifts the coefficients; the laws they
obey are checked by the window, prefix-sign and sign-survey reports of
``verify``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .core import ConsistencyError, DescentSet, strict_ints
from .formulas import _stable_run
from .formulas import binom_poly  # noqa: F401  perfbench/spans.py traces this binding
from .formulas import stable_descent_count  # noqa: F401  perfbench/spans.py traces this binding
from .oracle import DEFAULT_BUDGET
from .oracle import count_coeff_witnesses  # noqa: F401  perfbench/spans.py traces this binding


@dataclass(frozen=True)
class BinomialBasisPoly:
    """Integer coefficients over the base (binom(n + offset, i))_i.

    The offset and coefficients must be ``int`` and not ``bool``; nothing
    is coerced.  Trailing zero coefficients are trimmed; the zero polynomial
    keeps an empty coefficient tuple.
    """

    offset: int
    coeffs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        strict_ints((self.offset,), "offsets")
        # Built from a list so the tuple is allocated at its exact size:
        # tuple(<generator>) over-allocates and resizes, and the freed
        # tuples then pile up on the interpreter's per-size free lists.
        cleaned = list(strict_ints(self.coeffs, "coefficients"))
        while cleaned and cleaned[-1] == 0:
            cleaned.pop()
        object.__setattr__(self, "coeffs", tuple(cleaned))

    @property
    def degree(self) -> int:
        """Degree of the represented polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, i: int) -> int:
        strict_ints((i,), "coefficient index", 0)
        return self.coeffs[i] if i < len(self.coeffs) else 0

    def evaluate(self, n: int) -> int:
        strict_ints((n,), "n")
        x, total, term = n + self.offset, 0, 1
        for i, c in enumerate(self.coeffs):
            total += c * term
            # binom(x, i) * (x - i) = (i + 1) * binom(x, i + 1) for every int x
            term = term * (x - i) // (i + 1)
        return total


def extract_coeffs(descents: DescentSet, offset: int) -> BinomialBasisPoly:
    """Coefficients of the stabilized count over (binom(n + offset, i))_i.

    One forward-difference table over the samples at n = -offset + j for
    j in 0..2d+3, d = ``largest``: there the base is (binom(j, i))_i, so
    coefficient i is the first entry of the i-th difference row.  The
    samples come from one run of the closed form's prefix-end recurrence
    over all 2d + 4 points, each block-sum binomial stepped along n rather
    than recomputed.  They lie on one polynomial of degree at most d
    exactly when the whole (d + 1)-th row vanishes; a non-zero entry
    raises, since it would mean the library contradicts itself.  Before
    sampling, the closed form's products (|I|(|I| + 1)/2 a sample) and the
    table's 3(d + 1)(d + 2)/2 subtractions are charged to the default
    budget.
    """
    strict_ints((offset,), "offsets")
    d, size = descents.largest, len(descents)
    work = (2 * d + 4) * size * (size + 1) // 2 + 3 * (d + 1) * (d + 2) // 2
    if work > DEFAULT_BUDGET.max_work:
        raise DEFAULT_BUDGET.refusal(f"coefficients at |I| = {size}, max(I) = {d}")
    level = _stable_run(descents, -offset, 2 * d + 4)
    coeffs = []
    for _ in range(d + 1):
        coeffs.append(level[0])
        level = [b - a for a, b in zip(level, level[1:])]
    if any(level):
        raise ConsistencyError(
            f"stabilized count for {descents} is not a degree-{d} polynomial"
        )
    return BinomialBasisPoly(offset, tuple(coeffs))


def shift_basis(poly: BinomialBasisPoly, new_offset: int) -> BinomialBasisPoly:
    """Re-express a polynomial over the base at a different offset.

    Vandermonde's identity binom(n+k, i) = sum_j binom(n+k', j) *
    binom(k-k', i-j), for the old offset k and the new one k', holds for
    every integer k - k', so the new coefficients are
    c'_j = sum_{i>=j} c_i * binom(k-k', i-j): O(degree**2) integer products
    however far the offset moves.  The binomials binom(k-k', i) are stepped
    along i as in :meth:`BinomialBasisPoly.evaluate`.
    """
    strict_ints((new_offset,), "offsets")
    old = poly.coeffs
    delta, term, steps = poly.offset - new_offset, 1, []
    for i in range(len(old)):
        steps.append(term)
        term = term * (delta - i) // (i + 1)
    coeffs = [sum(map(mul, old[j:], steps)) for j in range(len(old))]
    return BinomialBasisPoly(new_offset, tuple(coeffs))
