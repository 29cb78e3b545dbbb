"""The symmetric-function route: ribbon shapes and determinant expansion.

The descent pattern of a multiset word corresponds to a border strip (a
connected skew shape with no 2x2 block).  The count equals the coefficient
of the rectangular monomial x1^m ... xn^m in the skew Schur function of that
strip, and the Jacobi-Trudi identity turns the Schur function into a sum
of products of complete homogeneous symmetric functions, one per signed
coarsening of the row lengths.  Extracting the monomial from each product
reduces to counting nonnegative integer matrices with fixed row and column
sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .core import DescentSet, DomainError, require_positive, strict_ints
from .formulas import signed_coarsenings


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing nonnegative ``int`` parts; trailing zeros are trimmed."""

    parts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        cleaned = strict_ints(self.parts, "partition parts")
        while cleaned and cleaned[-1] == 0:
            cleaned = cleaned[:-1]
        if any(p < 0 for p in cleaned):
            raise DomainError("partition parts must be nonnegative")
        if any(cleaned[i] < cleaned[i + 1] for i in range(len(cleaned) - 1)):
            raise DomainError("partition parts must be weakly decreasing")
        object.__setattr__(self, "parts", cleaned)

    def padded(self, rows: int) -> tuple[int, ...]:
        """The parts, zero-extended on the right to ``rows`` entries."""
        return self.parts + (0,) * (rows - len(self.parts))


@dataclass(frozen=True)
class RibbonShape:
    """A border strip: a skew shape whose consecutive rows overlap in
    exactly one column, so it is connected and contains no 2x2 block."""

    outer: Partition
    inner: Partition

    def __post_init__(self) -> None:
        lam = self.outer.parts
        if not lam:
            raise DomainError("a ribbon needs at least one row")
        k = len(lam)
        if len(self.inner.parts) >= k:
            raise DomainError("the inner shape must leave the last row open")
        mu = self.inner.padded(k)
        for i in range(k):
            if mu[i] > lam[i]:
                raise DomainError("inner shape pokes outside the outer one")
            if lam[i] - mu[i] < 1:
                raise DomainError("every ribbon row must hold at least one cell")
        for i in range(k - 1):
            if mu[i] != lam[i + 1] - 1:
                raise DomainError("consecutive rows must overlap in exactly one column")

    @property
    def row_count(self) -> int:
        return len(self.outer.parts)

    @property
    def row_lengths(self) -> tuple[int, ...]:
        """Cells per row, top to bottom."""
        mu = self.inner.padded(self.row_count)
        return tuple(a - b for a, b in zip(self.outer.parts, mu))

    @property
    def cell_count(self) -> int:
        return sum(self.row_lengths)


def ribbon_shape(descents: DescentSet, n: int, m: int) -> RibbonShape:
    """The border strip whose row pattern encodes the descent set.

    Rows, top to bottom, have lengths (n*m - largest, then the first
    differences of the descent set in reverse); consecutive rows share one
    column.  Needs n*m > largest so the top row is non-empty.
    """
    if not descents:
        raise DomainError("a ribbon shape needs a non-empty descent set")
    require_positive(n=n, m=m)
    cells = n * m
    head = cells - descents.largest
    if head < 1:
        raise DomainError(
            f"need n*m > {descents.largest} for a non-empty top row; got n*m = {cells}"
        )
    rows = (head, *reversed(descents.first_differences))
    k = len(rows)
    lam = [0] * k
    lam[-1] = rows[-1]
    for i in range(k - 2, -1, -1):
        lam[i] = rows[i] + lam[i + 1] - 1
    mu = [lam[i + 1] - 1 for i in range(k - 1)]
    return RibbonShape(Partition(tuple(lam)), Partition(tuple(mu)))


def jacobi_trudi_terms(shape: RibbonShape) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Expand det[h(outer_i - inner_j - i + j)] into ``(sign, degrees)`` terms:
    for a ribbon these are the signed coarsenings of the row lengths, top to
    bottom (Stanley, EC2 7.23), so every degree is positive."""
    yield from signed_coarsenings(shape.row_lengths)


def rect_coeff(h_degrees: Sequence[int], n: int, m: int) -> int:
    """Coefficient of x1^m ... xn^m in a product of complete homogeneous
    symmetric functions of the given degrees, over n variables.

    Equals the number of nonnegative integer matrices with these row sums
    whose n columns each sum to m.  Counted column by column; the state is
    the sorted vector of row sums still outstanding, so permuting the
    degrees never changes the answer.  Zero whenever the degrees do not sum
    to n*m.
    """
    require_positive(n=n, m=m)
    degrees = tuple(int(d) for d in h_degrees)
    if any(d < 0 for d in degrees):
        raise DomainError("degrees must be nonnegative")
    if sum(degrees) != n * m:
        return 0
    start = tuple(sorted(d for d in degrees if d))
    memo: dict[tuple[int, tuple[int, ...]], int] = {}

    def fill(columns: int, outstanding: tuple[int, ...]) -> int:
        if columns == 0:
            return 1  # totals match by construction, so all rows are settled
        key = (columns, outstanding)
        cached = memo.get(key)
        if cached is not None:
            return cached
        if outstanding and outstanding[-1] > columns * m:
            memo[key] = 0  # some row can no longer be finished
            return 0
        total = 0
        for column in _column_fills(outstanding, m):
            rest = tuple(
                sorted(x for x in (a - b for a, b in zip(outstanding, column)) if x)
            )
            total += fill(columns - 1, rest)
        memo[key] = total
        return total

    return fill(n, start)


def _column_fills(limits: tuple[int, ...], budget: int) -> Iterator[tuple[int, ...]]:
    """Yield ways to place ``budget`` units into slots capped by ``limits``."""
    take = [0] * len(limits)
    suffix = [0] * (len(limits) + 1)
    for i in range(len(limits) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + limits[i]

    def rec(i: int, left: int) -> Iterator[tuple[int, ...]]:
        if i == len(limits):
            if left == 0:
                yield tuple(take)
            return
        lo = max(0, left - suffix[i + 1])
        for c in range(lo, min(limits[i], left) + 1):
            take[i] = c
            yield from rec(i + 1, left - c)

    yield from rec(0, budget)


def count_via_jacobi_trudi(descents: DescentSet, n: int, m: int) -> int:
    """The determinant route to the multiset descent count.

    Builds the ribbon for the descent set, expands its determinant, and
    assembles the signed sum of rectangular-monomial coefficients.  Matches
    the other routes whenever n*m > largest.
    """
    shape = ribbon_shape(descents, n, m)
    return sum(
        sign * rect_coeff(degrees, n, m) for sign, degrees in jacobi_trudi_terms(shape)
    )
