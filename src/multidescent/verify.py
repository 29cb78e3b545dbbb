"""Whole-library verification: the cross-route identities and the
coefficient laws, each a report of checks over an exhaustive capped grid.

Reports record failed checks instead of raising, and refuse a grid bound
that would leave them no checks.  ``full_suite(quick=True)`` shrinks the
grids for a fast smoke pass.  All comparisons are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Any

from . import formulas, oracle, polybasis, schur
from .core import DescentSet, DomainError, strict_ints


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


def descent_sets_up_to(top: int) -> list[DescentSet]:
    """Every non-empty descent set contained in {1, ..., top}, top >= 1."""
    strict_ints((top,), "grid bounds", 1)
    universe = range(1, top + 1)
    out: list[DescentSet] = []
    for size in range(1, top + 1):
        out.extend(DescentSet(c) for c in combinations(universe, size))
    return out


def agreement_report(
    top: int = 6, n_max: int = 5, m_max: int = 3, cells_max: int = 12
) -> Report:
    """All four routes give the same count on the grid.

    The enumeration side is one :func:`oracle.descent_histogram` per (n, m),
    made when the grid first reaches that pair, so every set is read off
    the same full enumeration.  Every route answers n*m <= largest with 0,
    but the determinant route is checked only where n*m > largest: the
    check count at the benchmark's grid (457 at top=4, n_max=4, m_max=3,
    cells_max=12) is a recorded reference, so the guard stays.
    """
    strict_ints((n_max, m_max, cells_max), "grid bounds", 1)
    checks = []
    histograms: dict[tuple[int, int], dict[DescentSet, int]] = {}
    for ds in descent_sets_up_to(top):
        for n in range(1, n_max + 1):
            for m in range(1, m_max + 1):
                if n * m > cells_max:
                    continue
                if (n, m) not in histograms:
                    histograms[n, m] = oracle.descent_histogram(n, m)
                reference = histograms[n, m].get(ds, 0)
                checks.append(
                    Check(
                        f"{ds} n={n} m={m}: prefix route matches enumeration",
                        reference,
                        oracle.count_prefix(ds, n, m),
                    )
                )
                checks.append(
                    Check(
                        f"{ds} n={n} m={m}: recurrence route matches enumeration",
                        reference,
                        formulas.descent_count(ds, n, m),
                    )
                )
                if n * m > ds.largest:
                    checks.append(
                        Check(
                            f"{ds} n={n} m={m}: determinant route matches enumeration",
                            reference,
                            schur.count_via_jacobi_trudi(ds, n, m),
                        )
                    )
    return Report("four-route agreement", tuple(checks))


def monotonicity_report(top: int = 4, extra_n: int = 3) -> Report:
    """For alphabets larger than the largest descent, the count never drops
    as the multiplicity grows."""
    strict_ints((extra_n,), "grid bounds", 1)
    checks = []
    for ds in descent_sets_up_to(top):
        for n in range(ds.largest + 1, ds.largest + extra_n + 1):
            values = [
                oracle.count_prefix(ds, n, m) for m in range(1, ds.largest + 3)
            ]
            checks.append(
                Check(
                    f"{ds} n={n}: counts {values} weakly increase with multiplicity",
                    True,
                    all(a <= b for a, b in zip(values, values[1:])),
                )
            )
    return Report("multiplicity monotonicity", tuple(checks))


def stabilization_report(top: int = 5) -> Report:
    """The count rises strictly into the stabilization point and is constant
    from there on, for alphabets of at least max(longest run + 1, largest)."""
    checks = []
    for ds in descent_sets_up_to(top):
        point = formulas.stabilization_point(ds)
        for n in range(max(ds.longest_run + 1, ds.largest), ds.largest + 3):
            plateau = [
                oracle.count_prefix(ds, n, m) for m in range(point, point + 3)
            ]
            checks.append(
                Check(
                    f"{ds} n={n}: constant count {plateau} from multiplicity {point} on",
                    True,
                    plateau[0] == plateau[1] == plateau[2],
                )
            )
            if point >= 2:
                before = oracle.count_prefix(ds, n, point - 1)
                checks.append(
                    Check(
                        f"{ds} n={n}: strict rise into the stabilization point "
                        f"({before} -> {plateau[0]})",
                        True,
                        before < plateau[0],
                    )
                )
    return Report("stabilization point", tuple(checks))


def stable_form_report(top: int = 5, span: int = 3) -> Report:
    """The stabilized closed form equals the stabilized enumeration and the
    sum of the last-value formula over last values 2..n."""
    strict_ints((span,), "grid bounds", 0)
    checks = []
    for ds in descent_sets_up_to(top):
        point = formulas.stabilization_point(ds)
        for n in range(ds.largest, ds.largest + span + 1):
            value = formulas.stable_descent_count(ds, n)
            checks.append(
                Check(
                    f"{ds} n={n}: closed form matches the stabilized enumeration",
                    oracle.count_prefix(ds, n, point),
                    value,
                )
            )
            checks.append(
                Check(
                    f"{ds} n={n}: closed form matches the last-value formula summed",
                    sum(formulas.last_fixed_formula(ds, n, j) for j in range(2, n + 1)),
                    value,
                )
            )
    return Report("stabilized closed form", tuple(checks))


def last_fixed_report(top: int = 4, span: int = 3) -> Report:
    """The last-value formula matches brute force for every last value."""
    strict_ints((span,), "grid bounds", 0)
    checks = []
    for ds in descent_sets_up_to(top):
        for n in range(ds.largest, ds.largest + span + 1):
            for j in range(1, n + 1):
                checks.append(
                    Check(
                        f"{ds} n={n} j={j}: last-value formula matches enumeration",
                        oracle.count_last_fixed(ds, n, j),
                        formulas.last_fixed_formula(ds, n, j),
                    )
                )
    return Report("last-value formula", tuple(checks))


def window_report(top: int = 6) -> Report:
    """Window law for the offset -1 coefficients of all sets within {1..top}.

    They vanish strictly below the longest run and cannot extend past the
    largest element, are positive inside that window, and each one equals
    the brute-force witness count.
    """
    checks = []
    for ds in descent_sets_up_to(top):
        poly = polybasis.extract_coeffs(ds, -1)
        low, high = ds.longest_run, ds.largest
        window = f"window [{low},{high}]"
        checks.append(
            Check(f"{ds}: degree equals the largest element", high, poly.degree)
        )
        for i in range(high + 1):
            value = poly.coefficient(i)
            if i >= low:
                law, expected, actual = f"inside {window} is positive", True, value >= 1
            else:
                law, expected, actual = f"outside {window} is zero", 0, value
            checks.append(Check(f"{ds}: coefficient {i} {law}", expected, actual))
            checks.append(
                Check(
                    f"{ds}: coefficient {i} equals the witness count",
                    oracle.count_coeff_witnesses(ds, i),
                    value,
                )
            )
    return Report("coefficient windows", tuple(checks))


def prefix_signs_report(top: int = 6) -> Report:
    """Alternating prefix law for the offset 0 coefficients of all sets within
    {1..top}.

    Coefficient i equals (-1)**(i + size) for every i up to the longest run,
    and each offset-0 coefficient is the alternating tail sum of the
    offset -1 ones.
    """
    checks = []
    for ds in descent_sets_up_to(top):
        base = polybasis.extract_coeffs(ds, -1)
        shifted = polybasis.extract_coeffs(ds, 0)
        for i in range(ds.longest_run + 1):
            want = -1 if (i + len(ds)) % 2 else 1
            checks.append(
                Check(
                    f"{ds}: offset-0 coefficient {i} equals {want}",
                    want,
                    shifted.coefficient(i),
                )
            )
        for k in range(ds.largest + 1):
            tail = sum(
                (-1) ** (i - k) * base.coefficient(i)
                for i in range(k, ds.largest + 1)
            )
            checks.append(
                Check(
                    f"{ds}: offset-0 coefficient {k} is the alternating tail "
                    f"of the offset -1 coefficients",
                    tail,
                    shifted.coefficient(k),
                )
            )
    return Report("alternating prefixes", tuple(checks))


def _offsets(k_min: int, k_max: int) -> range:
    """The offsets k_min..k_max; an empty range is refused."""
    strict_ints((k_min, k_max), "grid bounds")
    if k_min > k_max:
        raise DomainError(f"empty offset range [{k_min},{k_max}]")
    return range(k_min, k_max + 1)


def sign_survey_report(top: int = 6, k_min: int = -3, k_max: int = 2) -> Report:
    """Coefficient sign pattern across offsets for all sets within {1..top}:
    all coefficients nonnegative at offsets at or below -1, at least one
    negative at offsets at or above 0."""
    offsets = _offsets(k_min, k_max)
    checks = []
    for ds in descent_sets_up_to(top):
        base = polybasis.extract_coeffs(ds, -1)
        for k in offsets:
            coeffs = list(polybasis.shift_basis(base, k).coeffs)
            if k <= -1:
                law, holds = "are all nonnegative", all(c >= 0 for c in coeffs)
            else:
                law, holds = "include a negative", any(c < 0 for c in coeffs)
            claim = f"{ds}: offset {k} coefficients {coeffs} {law}"
            checks.append(Check(claim, True, holds))
    return Report("coefficient sign survey", tuple(checks))


def single_descent_report(a_max: int = 6, n_max: int = 10) -> Report:
    """For one descent at position a the stabilized count is
    binom(n + a - 1, a) - 1, checked against the stdlib binomial."""
    strict_ints((a_max, n_max), "grid bounds", 1)
    checks = []
    for a in range(1, a_max + 1):
        ds = DescentSet((a,))
        for n in range(1, n_max + 1):
            checks.append(
                Check(
                    f"{ds} n={n}: stabilized count is binom(n+a-1, a) - 1",
                    comb(n + a - 1, a) - 1,
                    formulas.stable_descent_count(ds, n),
                )
            )
    return Report("single-descent closed form", tuple(checks))


def polynomiality_report(top: int = 6, m_max: int = 4) -> Report:
    """At fixed multiplicity the count is a polynomial in the alphabet size
    of degree at most the largest descent: one more forward difference
    vanishes on n from largest to 2*largest + 2."""
    strict_ints((m_max,), "grid bounds", 1)
    checks = []
    for ds in descent_sets_up_to(top):
        d = ds.largest
        for m in range(1, m_max + 1):
            level = [formulas.descent_count(ds, n, m) for n in range(d, 2 * d + 3)]
            for _ in range(d + 1):
                level = [b - a for a, b in zip(level, level[1:])]
            checks.append(
                Check(
                    f"{ds} m={m}: order-{d + 1} forward differences vanish",
                    [0] * len(level),
                    level,
                )
            )
    return Report("polynomial in the alphabet size", tuple(checks))


def ribbon_report(top: int = 4, n_max: int = 4, m_max: int = 3) -> Report:
    """Structural laws of the ribbon construction on a small grid, plus one
    frozen larger example."""
    strict_ints((n_max, m_max), "grid bounds", 1)
    shape = schur.ribbon_shape(DescentSet((4, 8, 9)), 5, 3)
    checks = [
        Check(
            "{4,8,9} n=5 m=3: outer shape",
            (12, 7, 7, 4),
            shape.outer.parts,
        ),
        Check(
            "{4,8,9} n=5 m=3: inner shape",
            (6, 6, 3, 0),
            shape.inner.padded(4),
        ),
        Check("{4,8,9} n=5 m=3: cell count", 15, shape.cell_count),
    ]
    for ds in descent_sets_up_to(top):
        for n in range(1, n_max + 1):
            for m in range(1, m_max + 1):
                if n * m <= ds.largest:
                    continue
                shape = schur.ribbon_shape(ds, n, m)
                checks.append(
                    Check(
                        f"{ds} n={n} m={m}: ribbon holds n*m cells in "
                        f"{len(ds) + 1} rows",
                        (n * m, len(ds) + 1, n * m - ds.largest),
                        (shape.cell_count, shape.row_count, shape.row_lengths[0]),
                    )
                )
    return Report("ribbon construction", tuple(checks))


def basis_roundtrip_report(top: int = 4, k_min: int = -3, k_max: int = 3) -> Report:
    """Shifting the coefficient base agrees with direct extraction at every
    offset and undoes itself exactly."""
    offsets = _offsets(k_min, k_max)
    checks = []
    for ds in descent_sets_up_to(top):
        base = polybasis.extract_coeffs(ds, -1)
        for k in offsets:
            shifted = polybasis.shift_basis(base, k)
            checks.append(
                Check(
                    f"{ds}: shifting to offset {k} matches direct extraction",
                    polybasis.extract_coeffs(ds, k).coeffs,
                    shifted.coeffs,
                )
            )
            back = polybasis.shift_basis(polybasis.shift_basis(shifted, k + 1), k)
            checks.append(
                Check(
                    f"{ds}: offset {k} -> {k + 1} -> {k} round trip is exact",
                    shifted.coeffs,
                    back.coeffs,
                )
            )
    return Report("basis shift round trips", tuple(checks))


def evaluation_report(top: int = 6) -> Report:
    """Extracted coefficients reproduce the stabilized count at every probed
    integer, including negative ones."""
    checks = []
    for ds in descent_sets_up_to(top):
        for k in (-2, -1, 0, 1):
            poly = polybasis.extract_coeffs(ds, k)
            expected = [
                formulas.stable_descent_count(ds, n)
                for n in range(-2, ds.largest + 5)
            ]
            actual = [poly.evaluate(n) for n in range(-2, ds.largest + 5)]
            checks.append(
                Check(
                    f"{ds} offset {k}: evaluates to the stabilized count "
                    f"on -2..{ds.largest + 4}",
                    expected,
                    actual,
                )
            )
    return Report("coefficient evaluation", tuple(checks))


def witness_split_report(top: int = 4) -> Report:
    """Decompositions of the witness counts.

    Each witness count splits by whether the value 1 appears; the part that
    skips 1 at the next index equals the full part plus the witness count of
    the descent set without its largest element.  The witness counts also
    sum, over last values 2..n, to the stabilized enumeration.
    """
    checks = []
    for ds in descent_sets_up_to(top):
        d = ds.largest
        for i in range(d + 1):
            checks.append(
                Check(
                    f"{ds} i={i}: witnesses split by whether value 1 appears",
                    oracle.count_coeff_witnesses(ds, i),
                    oracle.count_onto_upper(ds, i) + oracle.count_onto_full(ds, i),
                )
            )
        if len(ds) >= 2:
            for i in range(d + 1):
                checks.append(
                    Check(
                        f"{ds} i={i}: skip-1 witnesses at i+1 split off the "
                        f"shorter set's witnesses",
                        oracle.count_onto_upper(ds, i + 1),
                        oracle.count_onto_full(ds, i)
                        + oracle.count_coeff_witnesses(ds.without_largest, i),
                    )
                )
        point = formulas.stabilization_point(ds)
        for n in range(d, d + 3):
            checks.append(
                Check(
                    f"{ds} n={n}: last-value counts sum to the stabilized "
                    f"enumeration",
                    oracle.count_prefix(ds, n, point),
                    sum(oracle.count_last_fixed(ds, n, j) for j in range(2, n + 1)),
                )
            )
    return Report("witness decompositions", tuple(checks))


# Every report with its quick grid, in suite order; the full suite runs each
# report at its default grid.
_SUITE = (
    (agreement_report, dict(top=3, n_max=3, m_max=2, cells_max=8)),
    (monotonicity_report, dict(top=3, extra_n=2)),
    (stabilization_report, dict(top=4)),
    (stable_form_report, dict(top=4, span=2)),
    (last_fixed_report, dict(top=3, span=2)),
    (window_report, dict(top=4)),
    (prefix_signs_report, dict(top=4)),
    (sign_survey_report, dict(top=4)),
    (single_descent_report, dict(a_max=4, n_max=6)),
    (polynomiality_report, dict(top=3, m_max=2)),
    (ribbon_report, dict(top=3, n_max=3, m_max=2)),
    (basis_roundtrip_report, dict(top=3)),
    (evaluation_report, dict(top=4)),
    (witness_split_report, dict(top=3)),
)


def full_suite(quick: bool = False) -> list[Report]:
    """Run every report; ``quick`` shrinks the grids for a smoke pass."""
    return [report(**(grid if quick else {})) for report, grid in _SUITE]
