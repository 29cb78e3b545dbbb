"""The symmetric-function route: ribbon shapes and determinant expansion.

The descent pattern of a multiset word corresponds to a border strip (a
connected skew shape with no 2x2 block).  The count equals the coefficient
of the rectangular monomial x1^m ... xn^m in the skew Schur function of that
strip, and the Jacobi-Trudi identity turns the Schur function into a sum
of products of complete homogeneous symmetric functions, one per signed
coarsening of the row lengths.  A product's coefficient counts nonnegative
integer matrices with those row sums and n columns each summing to m.
It is symmetric in the rows, so one signed chain over the prefix ends of
the descent set fills row blocks into multisets of column fills, and n
enters only through binomials; ``jacobi_trudi_terms`` lists the terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import comb
from typing import Iterator, Sequence

from .core import DescentSet, DomainError, require_positive, strict_ints
from .formulas import signed_coarsenings
from .oracle import DEFAULT_BUDGET, EnumerationBudget


@dataclass(frozen=True)
class RibbonShape:
    """A border strip, given by its row lengths top to bottom: consecutive
    rows overlap in exactly one column, so any tuple of positive lengths is
    one connected skew shape with no 2x2 block."""

    row_lengths: tuple[int, ...]

    def __post_init__(self) -> None:
        rows = strict_ints(self.row_lengths, "ribbon row lengths", 1)
        if not rows:
            raise DomainError("a ribbon needs at least one row")
        object.__setattr__(self, "row_lengths", rows)

    @property
    def row_count(self) -> int:
        return len(self.row_lengths)

    @property
    def cell_count(self) -> int:
        return sum(self.row_lengths)

    @property
    def outer(self) -> tuple[int, ...]:
        """The outer partition: each row starts in the last column of the
        row below it, so outer_i = row_i + outer_{i+1} - 1."""
        rows = self.row_lengths[::-1]
        return tuple(accumulate(rows, lambda part, r: part + r - 1))[::-1]

    @property
    def inner(self) -> tuple[int, ...]:
        """The inner partition, one entry per row (the last one is 0)."""
        return (*(part - 1 for part in self.outer[1:]), 0)


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
    return RibbonShape((head, *reversed(descents.first_differences)))


def jacobi_trudi_terms(shape: RibbonShape) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Expand det[h(outer_i - inner_j - i + j)] into ``(sign, degrees)`` terms:
    for a ribbon these are the signed coarsenings of the row lengths, top to
    bottom (Stanley, EC2 7.23), so every degree is positive.

    No counting route uses it (the determinant route runs one chain over
    the prefix ends instead): only demo 04, the tests and the bench's
    ``schur.jacobi_trudi_terms`` rows do.
    """
    yield from signed_coarsenings(shape.row_lengths)


def rect_coeff(h_degrees: Sequence[int], n: int, m: int) -> int:
    """Coefficient of x1^m ... xn^m in a product of complete homogeneous
    symmetric functions of the given degrees, over n variables.

    Equals the number of nonnegative integer matrices with these row sums
    whose n columns each sum to m: zero unless the degrees, nonnegative
    ``int`` values (nothing is coerced), sum to n*m.  The rows are placed
    largest last, which fills what every column lacks in exactly one way;
    the placements are charged to the default budget's ``max_work``.  No
    counting route uses it: only demo 04, the tests and the bench's
    ``schur.rect_coeff`` rows do.
    """
    require_positive(n=n, m=m)
    degrees = strict_ints(h_degrees, "degrees", 0)
    if sum(degrees) != n * m:
        return 0
    states = {(): 1}
    spent = 0
    for q in sorted(d for d in degrees if d)[:-1]:
        reached: dict[tuple[int, ...], int] = {}
        spent = _place(states, q, n, m, reached, spent, DEFAULT_BUDGET)
        states = reached
    return sum(states.values())


def _place(
    states: dict, q: int, n: int, m: int, into: dict, spent: int,
    budget: EnumerationBudget,
) -> int:
    """Add one row of q units to every state, summing the results into ``into``;
    return ``spent`` plus the placements made, raising past the budget.

    A state is the ascending tuple of the positive column fills (parts <= m,
    at most n of them), weighted by the matrices so far that reach it.  The
    g columns of fill u, for u = 0 the n - len unused ones, form a class: the
    row gives k_1 of them one more unit, k_2 of the rest two, ... up to m - u,
    in comb(g, k_1) * comb(g - k_1, k_2) * ... ways.  An explicit stack makes
    these choices class by class, skips empty and full classes, and never
    pushes a frame whose units cannot fit the columns it has left.
    """
    cap = budget.max_work
    for fills, weight in states.items():
        classes = [(0, n - len(fills), fills)] if n > len(fills) else []
        for u in sorted(set(fills) - {m}):  # full columns take nothing more
            g = fills.count(u)
            classes.append((u, g, fills[fills.index(u) + g :]))  # fills above u
        room = [0] * (len(classes) + 1)  # units that classes c.. can still take
        for c in range(len(classes) - 1, -1, -1):
            room[c] = room[c + 1] + classes[c][1] * (m - classes[c][0])
        # class, least increment left, its columns left, units left, ways, fills
        stack = [(0, 1, classes[0][1], q, weight, ())] if room[0] >= q else []
        while stack:
            c, low, free, left, ways, done = stack.pop()
            u, _, rest = classes[c]
            kept = (u,) * free if u else ()
            if not left:
                spent += 1
                if spent > cap:
                    raise budget.refusal("Jacobi-Trudi placements")
                key = tuple(sorted(done + kept + rest))
                into[key] = into.get(key, 0) + ways
                continue
            if room[c + 1] >= left:
                stack.append((c + 1, 1, classes[c + 1][1], left, ways, done + kept))
            # k columns at +t leave room for the rest iff k * (span - t) <= slack,
            # so no t below span - slack places anything
            span = m - u
            slack = free * span + room[c + 1] - left
            least = span - slack
            for t in range(least if least > low else low, min(span, left) + 1):
                for k in range(1, min(free, left // t) + 1):
                    if k * (span - t) > slack:
                        break  # k columns stuck at +t leave too little room
                    stack.append((c, t + 1, free - k, left - k * t,
                                  ways * comb(free, k), done + (u + t,) * k))
    return spent


def count_via_jacobi_trudi(
    descents: DescentSet, n: int, m: int, budget: EnumerationBudget | None = None
) -> int:
    """The determinant route to the multiset descent count.

    A coarsening of the ribbon's rows is a chain through the prefix ends
    0 = e_0 < ... < e_k = largest plus a top block.  Grouping the chains by
    their last end, G[0] = {(): 1} and G[j] = -sum_{i<j} _place(G[i], e_j -
    e_i); the top block fills every column up to m in one way, so the count
    is (-1)**k times the total weight of all the G[i], so 1 for the empty set.
    When n*m <= largest there is no ribbon and no word: the count is 0, as on
    every other route.  ``max_work`` caps the placements of the whole chain.
    """
    require_positive(n=n, m=m)
    if descents and descents.largest >= n * m:
        return 0  # no successor position left for the final descent
    budget = budget or DEFAULT_BUDGET
    spent = 0
    ends = (0, *descents.elements)
    chain = [{(): 1}]
    for e in ends[1:]:
        reached: dict[tuple[int, ...], int] = {}
        for f, states in zip(ends, chain):
            spent = _place(states, e - f, n, m, reached, spent, budget)
        chain.append({key: -w for key, w in reached.items() if w})
    total = sum(sum(states.values()) for states in chain)
    return -total if len(descents) % 2 else total
