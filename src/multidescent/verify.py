"""Whole-library verification: the cross-route identities and the
coefficient laws, each a report of checks over an exhaustive capped grid.

Each report is written as a generator of its checks, in order, and
``_report`` makes it a function that returns them as one ``Report``.
Reports record failed checks instead of raising, and refuse a grid bound
that would leave them no checks.  ``full_suite(quick=True)`` shrinks the
grids for a fast smoke pass.  All comparisons are exact.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Any, Callable, Iterator

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


def _report(name: str) -> Callable[[Callable[..., Iterator[Check]]], Callable]:
    """Turn a generator of checks into a function that returns them, in
    order, as ``Report(name, checks)``; a refusal is raised by the call."""

    def decorate(checks: Callable[..., Iterator[Check]]) -> Callable[..., Report]:
        @functools.wraps(checks)
        def report(*args: Any, **kwargs: Any) -> Report:
            return Report(name, tuple(checks(*args, **kwargs)))

        return report

    return decorate


def descent_sets_up_to(top: int) -> list[DescentSet]:
    """Every non-empty descent set contained in {1, ..., top}, top >= 1."""
    strict_ints((top,), "grid bounds", 1)
    universe = range(1, top + 1)
    out: list[DescentSet] = []
    for size in range(1, top + 1):
        out.extend(DescentSet(c) for c in combinations(universe, size))
    return out


@_report("four-route agreement")
def agreement_report(
    top: int = 6, n_max: int = 6, m_max: int = 6, cells_max: int = 24
) -> Iterator[Check]:
    """All four routes give the same count on the grid.

    The enumeration side is one :func:`oracle.count_naive` per (set, n, m),
    a transfer with the set's drops enforced at every position.  The
    default grid reaches n = 6, m = 6 and n*m = 24, 5349 checks.  Every
    route answers n*m <= largest with 0, but the determinant route is
    checked only where n*m > largest: the check count at the benchmark's
    grid (457 at top=4, n_max=4, m_max=3, cells_max=12) is a recorded
    reference, so the guard stays.
    """
    strict_ints((n_max, m_max, cells_max), "grid bounds", 1)
    for ds in descent_sets_up_to(top):
        for n in range(1, n_max + 1):
            for m in range(1, m_max + 1):
                if n * m > cells_max:
                    continue
                reference = oracle.count_naive(ds, n, m)
                yield Check(
                    f"{ds} n={n} m={m}: prefix route matches enumeration",
                    reference,
                    oracle.count_prefix(ds, n, m),
                )
                yield Check(
                    f"{ds} n={n} m={m}: recurrence route matches enumeration",
                    reference,
                    formulas.descent_count(ds, n, m),
                )
                if n * m > ds.largest:
                    yield Check(
                        f"{ds} n={n} m={m}: determinant route matches enumeration",
                        reference,
                        schur.count_via_jacobi_trudi(ds, n, m),
                    )


@_report("multiplicity monotonicity")
def monotonicity_report(top: int = 4, extra_n: int = 3) -> Iterator[Check]:
    """For alphabets larger than the largest descent, the count never drops
    as the multiplicity grows."""
    strict_ints((extra_n,), "grid bounds", 1)
    for ds in descent_sets_up_to(top):
        for n in range(ds.largest + 1, ds.largest + extra_n + 1):
            values = [
                oracle.count_prefix(ds, n, m) for m in range(1, ds.largest + 3)
            ]
            yield Check(
                f"{ds} n={n}: counts {values} weakly increase with multiplicity",
                True,
                all(a <= b for a, b in zip(values, values[1:])),
            )


@_report("stabilization point")
def stabilization_report(top: int = 5) -> Iterator[Check]:
    """The count rises strictly into the stabilization point and is constant
    from there on, for alphabets of at least max(longest run + 1, largest)."""
    for ds in descent_sets_up_to(top):
        point = formulas.stabilization_point(ds)
        for n in range(max(ds.longest_run + 1, ds.largest), ds.largest + 3):
            plateau = [
                oracle.count_prefix(ds, n, m) for m in range(point, point + 3)
            ]
            yield Check(
                f"{ds} n={n}: constant count {plateau} from multiplicity {point} on",
                True,
                plateau[0] == plateau[1] == plateau[2],
            )
            if point >= 2:
                before = oracle.count_prefix(ds, n, point - 1)
                yield Check(
                    f"{ds} n={n}: strict rise into the stabilization point "
                    f"({before} -> {plateau[0]})",
                    True,
                    before < plateau[0],
                )


@_report("stabilized closed form")
def stable_form_report(top: int = 5, span: int = 3) -> Iterator[Check]:
    """The stabilized closed form equals the stabilized enumeration and the
    sum of the last-value formula over last values 2..n."""
    strict_ints((span,), "grid bounds", 0)
    for ds in descent_sets_up_to(top):
        point = formulas.stabilization_point(ds)
        for n in range(ds.largest, ds.largest + span + 1):
            value = formulas.stable_descent_count(ds, n)
            yield Check(
                f"{ds} n={n}: closed form matches the stabilized enumeration",
                oracle.count_prefix(ds, n, point),
                value,
            )
            yield Check(
                f"{ds} n={n}: closed form matches the last-value formula summed",
                sum(formulas.last_fixed_formula(ds, n, j) for j in range(2, n + 1)),
                value,
            )


@_report("last-value formula")
def last_fixed_report(top: int = 6, span: int = 3) -> Iterator[Check]:
    """The last-value formula matches brute force for every last value,
    all of them read off one transfer per (set, n)."""
    strict_ints((span,), "grid bounds", 0)
    for ds in descent_sets_up_to(top):
        for n in range(ds.largest, ds.largest + span + 1):
            counts = oracle.last_value_counts(ds, n)
            for j in range(1, n + 1):
                yield Check(
                    f"{ds} n={n} j={j}: last-value formula matches enumeration",
                    counts[j - 1],
                    formulas.last_fixed_formula(ds, n, j),
                )


@_report("coefficient windows")
def window_report(top: int = 7) -> Iterator[Check]:
    """Window law for the offset -1 coefficients of all sets within {1..top}.

    They vanish strictly below the longest run and cannot extend past the
    largest element, are positive inside that window, and each one equals
    the brute-force witness count; every index's count is read off one
    transfer per set, :func:`oracle.witness_counts`.
    """
    for ds in descent_sets_up_to(top):
        poly = polybasis.extract_coeffs(ds, -1)
        witnesses = oracle.witness_counts(ds)
        low, high = ds.longest_run, ds.largest
        window = f"window [{low},{high}]"
        yield Check(f"{ds}: degree equals the largest element", high, poly.degree)

        for i in range(high + 1):
            value = poly.coefficient(i)
            if i >= low:
                law, expected, actual = f"inside {window} is positive", True, value >= 1
            else:
                law, expected, actual = f"outside {window} is zero", 0, value
            yield Check(f"{ds}: coefficient {i} {law}", expected, actual)
            yield Check(
                f"{ds}: coefficient {i} equals the witness count",
                sum(witnesses[i]),
                value,
            )


@_report("alternating prefixes")
def prefix_signs_report(top: int = 7) -> Iterator[Check]:
    """Alternating prefix law for the offset 0 coefficients of all sets within
    {1..top}.

    Coefficient i equals (-1)**(i + size) for every i up to the longest run,
    and each offset-0 coefficient is the alternating tail sum of the
    offset -1 ones.
    """
    for ds in descent_sets_up_to(top):
        base = polybasis.extract_coeffs(ds, -1)
        shifted = polybasis.extract_coeffs(ds, 0)
        for i in range(ds.longest_run + 1):
            want = -1 if (i + len(ds)) % 2 else 1
            yield Check(
                f"{ds}: offset-0 coefficient {i} equals {want}",
                want,
                shifted.coefficient(i),
            )
        for k in range(ds.largest + 1):
            tail = sum(
                (-1) ** (i - k) * base.coefficient(i)
                for i in range(k, ds.largest + 1)
            )
            yield Check(
                f"{ds}: offset-0 coefficient {k} is the alternating tail "
                f"of the offset -1 coefficients",
                tail,
                shifted.coefficient(k),
            )


def _offsets(k_min: int, k_max: int) -> range:
    """The offsets k_min..k_max; an empty range is refused."""
    strict_ints((k_min, k_max), "grid bounds")
    if k_min > k_max:
        raise DomainError(f"empty offset range [{k_min},{k_max}]")
    return range(k_min, k_max + 1)


@_report("coefficient sign survey")
def sign_survey_report(
    top: int = 6, k_min: int = -3, k_max: int = 2
) -> Iterator[Check]:
    """Coefficient sign pattern across offsets for all sets within {1..top}:
    all coefficients nonnegative at offsets at or below -1, at least one
    negative at offsets at or above 0."""
    offsets = _offsets(k_min, k_max)
    for ds in descent_sets_up_to(top):
        base = polybasis.extract_coeffs(ds, -1)
        for k in offsets:
            coeffs = list(polybasis.shift_basis(base, k).coeffs)
            if k <= -1:
                law, holds = "are all nonnegative", all(c >= 0 for c in coeffs)
            else:
                law, holds = "include a negative", any(c < 0 for c in coeffs)
            claim = f"{ds}: offset {k} coefficients {coeffs} {law}"
            yield Check(claim, True, holds)


@_report("single-descent closed form")
def single_descent_report(a_max: int = 6, n_max: int = 10) -> Iterator[Check]:
    """For one descent at position a the stabilized count is
    binom(n + a - 1, a) - 1, checked against the stdlib binomial."""
    strict_ints((a_max, n_max), "grid bounds", 1)
    for a in range(1, a_max + 1):
        ds = DescentSet((a,))
        for n in range(1, n_max + 1):
            yield Check(
                f"{ds} n={n}: stabilized count is binom(n+a-1, a) - 1",
                comb(n + a - 1, a) - 1,
                formulas.stable_descent_count(ds, n),
            )


@_report("polynomial in the alphabet size")
def polynomiality_report(top: int = 6, m_max: int = 4) -> Iterator[Check]:
    """At fixed multiplicity the count is a polynomial in the alphabet size
    of degree at most the largest descent: one more forward difference
    vanishes on n from largest to 2*largest + 2."""
    strict_ints((m_max,), "grid bounds", 1)
    for ds in descent_sets_up_to(top):
        d = ds.largest
        for m in range(1, m_max + 1):
            level = [formulas.descent_count(ds, n, m) for n in range(d, 2 * d + 3)]
            for _ in range(d + 1):
                level = [b - a for a, b in zip(level, level[1:])]
            yield Check(
                f"{ds} m={m}: order-{d + 1} forward differences vanish",
                [0] * len(level),
                level,
            )


@_report("ribbon construction")
def ribbon_report(top: int = 4, n_max: int = 4, m_max: int = 3) -> Iterator[Check]:
    """Structural laws of the ribbon construction on a small grid, plus one
    frozen larger example."""
    strict_ints((n_max, m_max), "grid bounds", 1)
    shape = schur.ribbon_shape(DescentSet((4, 8, 9)), 5, 3)
    yield Check("{4,8,9} n=5 m=3: outer shape", (12, 7, 7, 4), shape.outer)
    yield Check("{4,8,9} n=5 m=3: inner shape", (6, 6, 3, 0), shape.inner)
    yield Check("{4,8,9} n=5 m=3: cell count", 15, shape.cell_count)
    for ds in descent_sets_up_to(top):
        for n in range(1, n_max + 1):
            for m in range(1, m_max + 1):
                if n * m <= ds.largest:
                    continue
                shape = schur.ribbon_shape(ds, n, m)
                yield Check(
                    f"{ds} n={n} m={m}: ribbon holds n*m cells in "
                    f"{len(ds) + 1} rows",
                    (n * m, len(ds) + 1, n * m - ds.largest),
                    (shape.cell_count, shape.row_count, shape.row_lengths[0]),
                )


@_report("basis shift round trips")
def basis_roundtrip_report(
    top: int = 4, k_min: int = -3, k_max: int = 3
) -> Iterator[Check]:
    """Shifting the coefficient base agrees with direct extraction at every
    offset and undoes itself exactly."""
    offsets = _offsets(k_min, k_max)
    for ds in descent_sets_up_to(top):
        base = polybasis.extract_coeffs(ds, -1)
        for k in offsets:
            shifted = polybasis.shift_basis(base, k)
            yield Check(
                f"{ds}: shifting to offset {k} matches direct extraction",
                polybasis.extract_coeffs(ds, k).coeffs,
                shifted.coeffs,
            )
            back = polybasis.shift_basis(polybasis.shift_basis(shifted, k + 1), k)
            yield Check(
                f"{ds}: offset {k} -> {k + 1} -> {k} round trip is exact",
                shifted.coeffs,
                back.coeffs,
            )


@_report("coefficient evaluation")
def evaluation_report(top: int = 6) -> Iterator[Check]:
    """Extracted coefficients reproduce the stabilized count at every probed
    integer, including negative ones.

    The coefficients are read off the run evaluator's samples and the
    expected values come from ``stable_descent_count`` one n at a time, so
    this checks the run evaluator against the point evaluator."""
    for ds in descent_sets_up_to(top):
        expected = [
            formulas.stable_descent_count(ds, n) for n in range(-2, ds.largest + 5)
        ]
        for k in (-2, -1, 0, 1):
            poly = polybasis.extract_coeffs(ds, k)
            actual = [poly.evaluate(n) for n in range(-2, ds.largest + 5)]
            yield Check(
                f"{ds} offset {k}: evaluates to the stabilized count "
                f"on -2..{ds.largest + 4}",
                expected,
                actual,
            )


@_report("witness decompositions")
def witness_split_report(top: int = 6) -> Iterator[Check]:
    """Decompositions of the witness counts.

    Each witness count splits by whether the value 1 appears: the pair
    read off one transfer per set over (number of values held, rank of the
    last value), :func:`oracle.witness_counts`, equals the pair
    :func:`oracle.onto_counts` reads off the last-value tallies.  The part
    that skips 1 at the next index equals the full part plus the witness
    count of the descent set without its largest element; both sets' counts
    come from their tables, which read 0 past their end, where a word of
    ``largest`` values cannot hold every value the index asks for.  The
    last-value counts of one transfer per (set, n) also sum, over last values
    2..n, to the stabilized enumeration.
    """
    for ds in descent_sets_up_to(top):
        d = ds.largest
        table = oracle.witness_counts(ds)
        onto = oracle.onto_counts(ds, d)
        for i in range(d + 1):
            yield Check(
                f"{ds} i={i}: witnesses split by whether value 1 appears",
                table[i],
                onto[i],
            )
        if len(ds) >= 2:
            shorter = oracle.witness_counts(ds.without_largest)
            for i in range(d + 1):
                yield Check(
                    f"{ds} i={i}: skip-1 witnesses at i+1 split off the "
                    f"shorter set's witnesses",
                    table[i + 1][0] if i < d else 0,
                    table[i][1] + (sum(shorter[i]) if i < len(shorter) else 0),
                )
        point = formulas.stabilization_point(ds)
        for n in range(d, d + 3):
            yield Check(
                f"{ds} n={n}: last-value counts sum to the stabilized "
                f"enumeration",
                oracle.count_prefix(ds, n, point),
                sum(oracle.last_value_counts(ds, n)[1:]),
            )


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
