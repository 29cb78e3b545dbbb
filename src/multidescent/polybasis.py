"""Shifted binomial bases for the stabilized count.

A vector (c_0, ..., c_d) at offset k represents the polynomial
sum_i c_i * binom(n + k, i).  The stabilized count has integer coefficients
at every offset; the offset -1 base is the one whose coefficients directly
count witness words, and from offset 0 upward a negative coefficient always
appears.  Checks return structured reports instead of raising, so callers
can render or aggregate them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .core import ConsistencyError, DescentSet, DomainError, strict_ints
from .formulas import binom_poly, stable_descent_count
from .oracle import count_coeff_witnesses


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
        if i < 0:
            raise DomainError(f"coefficient index must be >= 0, got {i}")
        return self.coeffs[i] if i < len(self.coeffs) else 0

    def evaluate(self, n: int) -> int:
        return sum(
            c * binom_poly(n + self.offset, i) for i, c in enumerate(self.coeffs)
        )


@dataclass(frozen=True)
class Check:
    """One verified claim with its expected and observed values."""

    claim: str
    expected: Any
    actual: Any

    @property
    def passed(self) -> bool:
        return self.expected == self.actual


@dataclass(frozen=True)
class Report:
    """A named bundle of checks; passes when every check does."""

    name: str
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    @property
    def failures(self) -> tuple[Check, ...]:
        return tuple(check for check in self.checks if not check.passed)


def extract_coeffs(descents: DescentSet, offset: int) -> BinomialBasisPoly:
    """Coefficients of the stabilized count over (binom(n + offset, i))_i.

    Newton forward differences: sampling the polynomial at
    n = -offset, -offset + 1, ... turns the base into (binom(j, i))_i, whose
    coefficients are the iterated differences at the first sample.  The
    difference one past the degree must vanish, and the result is re-checked
    against fresh evaluations beyond the sampled window; either failure
    raises, since it would mean the library contradicts itself.
    """
    degree = descents.largest
    level = [stable_descent_count(descents, -offset + j) for j in range(degree + 2)]
    coeffs = [level[0]]
    for _ in range(degree + 1):
        level = [b - a for a, b in zip(level, level[1:])]
        coeffs.append(level[0])
    if coeffs.pop() != 0:
        raise ConsistencyError(
            f"stabilized count for {descents} is not a degree-{degree} polynomial"
        )
    poly = BinomialBasisPoly(offset, tuple(coeffs))
    for j in range(degree + 2, 2 * degree + 4):
        n = -offset + j
        if poly.evaluate(n) != stable_descent_count(descents, n):
            raise ConsistencyError(
                f"extracted coefficients for {descents} fail to reproduce the "
                f"stabilized count at n = {n}"
            )
    return poly


def shift_basis(poly: BinomialBasisPoly, new_offset: int) -> BinomialBasisPoly:
    """Re-express a polynomial over the base at a different offset.

    Lowering the offset uses the Pascal split
    binom(n+k, i) = binom(n+k-1, i) + binom(n+k-1, i-1); raising it uses the
    alternating inversion binom(n+k, i) = sum_j (-1)^(i-j) binom(n+k+1, j),
    whose new coefficients c'_j = sum_{i>=j} (-1)^(i-j) c_i follow the suffix
    recurrence c'_j = c_j - c'_{j+1}.  Each step is O(degree) and keeps every
    coefficient an integer.
    """
    coeffs = list(poly.coeffs)
    k = poly.offset
    while k > new_offset:
        for i in range(len(coeffs) - 1):
            coeffs[i] += coeffs[i + 1]
        k -= 1
    while k < new_offset:
        tail = 0
        for j in range(len(coeffs) - 1, -1, -1):
            tail = coeffs[j] - tail
            coeffs[j] = tail
        k += 1
    return BinomialBasisPoly(new_offset, tuple(coeffs))


def check_window(descents: DescentSet) -> Report:
    """Window law for the offset -1 coefficients.

    They vanish strictly below the longest run and cannot extend past the
    largest element, are positive inside that window, and each one equals
    the brute-force witness count.
    """
    poly = extract_coeffs(descents, -1)
    low = descents.longest_run
    high = descents.largest
    label = str(descents)
    checks = [Check(f"{label}: degree equals the largest element", high, poly.degree)]
    for i in range(high + 1):
        value = poly.coefficient(i)
        if low <= i <= high:
            checks.append(
                Check(
                    f"{label}: coefficient {i} inside window [{low},{high}] is positive",
                    True,
                    value >= 1,
                )
            )
        else:
            checks.append(
                Check(
                    f"{label}: coefficient {i} outside window [{low},{high}] is zero",
                    0,
                    value,
                )
            )
        checks.append(
            Check(
                f"{label}: coefficient {i} equals the witness count",
                count_coeff_witnesses(descents, i),
                value,
            )
        )
    return Report(f"coefficient window for {label}", tuple(checks))


def check_prefix_signs(descents: DescentSet) -> Report:
    """Alternating prefix law for the offset 0 coefficients.

    Coefficient i equals (-1)**(i + size) for every i up to the longest run,
    and each offset-0 coefficient is the alternating tail sum of the
    offset -1 ones.
    """
    base = extract_coeffs(descents, -1)
    shifted = extract_coeffs(descents, 0)
    t = len(descents)
    label = str(descents)
    checks = []
    for i in range(descents.longest_run + 1):
        want = -1 if (i + t) % 2 else 1
        checks.append(
            Check(
                f"{label}: offset-0 coefficient {i} equals {want}",
                want,
                shifted.coefficient(i),
            )
        )
    for k in range(descents.largest + 1):
        tail = sum(
            (-1) ** (i - k) * base.coefficient(i)
            for i in range(k, descents.largest + 1)
        )
        checks.append(
            Check(
                f"{label}: offset-0 coefficient {k} is the alternating tail "
                f"of the offset -1 coefficients",
                tail,
                shifted.coefficient(k),
            )
        )
    return Report(f"alternating prefix for {label}", tuple(checks))


def sign_survey(descents: DescentSet, k_min: int, k_max: int) -> Report:
    """Sign pattern across offsets: all coefficients nonnegative at offsets
    at or below -1, at least one negative at offsets at or above 0."""
    if k_min > k_max:
        raise DomainError(f"empty offset range [{k_min},{k_max}]")
    base = extract_coeffs(descents, -1)
    label = str(descents)
    checks = []
    for k in range(k_min, k_max + 1):
        coeffs = shift_basis(base, k).coeffs
        if k <= -1:
            checks.append(
                Check(
                    f"{label}: offset {k} coefficients {list(coeffs)} are all nonnegative",
                    True,
                    all(c >= 0 for c in coeffs),
                )
            )
        else:
            checks.append(
                Check(
                    f"{label}: offset {k} coefficients {list(coeffs)} include a negative",
                    True,
                    any(c < 0 for c in coeffs),
                )
            )
    return Report(
        f"sign survey for {label} over offsets [{k_min},{k_max}]", tuple(checks)
    )
