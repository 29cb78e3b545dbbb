"""The symmetric-function route: ribbon shapes and determinant expansion.

The descent pattern of a multiset word corresponds to a border strip (a
connected skew shape with no 2x2 block).  The count equals the coefficient
of the rectangular monomial x1^m ... xn^m in the skew Schur function of that
strip, and the Jacobi-Trudi identity turns the Schur function into a sum
of products of complete homogeneous symmetric functions, one per signed
coarsening of the row lengths.  A product's coefficient counts nonnegative
integer matrices with those row sums and n columns each summing to m.
Terms with equal degree multisets are netted first, and one signed forward
DP then fills the columns for all the surviving terms at once, so a state
of outstanding row sums is solved once per determinant, not once per term.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import sub
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
    whose n columns each sum to m.  The degrees must be nonnegative ``int``
    values (nothing is coerced), and the answer is zero whenever they do not
    sum to n*m.  Counted by the determinant route's forward column DP,
    started from this one product with weight 1.
    """
    require_positive(n=n, m=m)
    degrees = strict_ints(h_degrees, "degrees")
    if any(d < 0 for d in degrees):
        raise DomainError("degrees must be nonnegative")
    if sum(degrees) != n * m:
        return 0
    return _signed_fill({tuple(sorted(d for d in degrees if d)): 1}, n, m)


def _signed_fill(start: dict[tuple[int, ...], int], n: int, m: int) -> int:
    """Signed count of n-column matrices whose columns each sum to m: each
    ``start`` state, a sorted tuple of positive row sums that adds up to
    n*m, counts its matrices times its integer weight.

    A state is the sorted tuple of positive row sums still outstanding, so
    permuting rows never changes it.  Column by column, every state is
    pushed through each way to fill the next column; equal successors merge
    by adding their weights, and a weight that cancels to zero is dropped,
    so each state is solved once however many start states reach it.  A
    successor with a row the columns left cannot finish is pruned.  After n
    columns the answer is the weight of the empty state.
    """
    states = {key: w for key, w in start.items() if w}
    for columns_left in range(n - 1, -1, -1):
        cap = columns_left * m
        after: dict[tuple[int, ...], int] = {}
        for state, weight in states.items():
            for column in _column_fills(state, m):
                rest = tuple(sorted(x for x in map(sub, state, column) if x))
                if rest and rest[-1] > cap:
                    continue
                after[rest] = after.get(rest, 0) + weight
        states = {key: w for key, w in after.items() if w}
    return states.get((), 0)


def _column_fills(limits: tuple[int, ...], budget: int) -> Iterator[tuple[int, ...]]:
    """Yield ways to place ``budget`` units into slots capped by ``limits``."""
    slots = len(limits)
    room = [0] * (slots + 1)  # room[i]: what slots i.. can hold together
    for i in range(slots - 1, -1, -1):
        room[i] = room[i + 1] + limits[i]
    if room[0] < budget:
        return
    take = [0] * slots
    stack = [(-1, 0, budget)]  # slot i takes c, leaving `left` for the rest
    while stack:
        i, c, left = stack.pop()
        if i >= 0:
            take[i] = c
        i += 1
        if i == slots - 1:
            take[i] = left  # the room check guarantees left <= limits[i]
            yield tuple(take)
            continue
        for c in range(max(0, left - room[i + 1]), min(limits[i], left) + 1):
            stack.append((i, c, left - c))


def count_via_jacobi_trudi(descents: DescentSet, n: int, m: int) -> int:
    """The determinant route to the multiset descent count.

    Builds the ribbon for the descent set, expands its determinant, nets
    the signs of terms with the same degree multiset, and takes the signed
    sum of their rectangular-monomial coefficients in one column DP.
    Matches the other routes whenever n*m > largest.
    """
    shape = ribbon_shape(descents, n, m)
    net: dict[tuple[int, ...], int] = {}
    for sign, degrees in jacobi_trudi_terms(shape):
        key = tuple(sorted(degrees))
        net[key] = net.get(key, 0) + sign
    return _signed_fill(net, n, m)
