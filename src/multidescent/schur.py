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
enters only through binomials.  The chain is pushed: the states grouped at
one end are complete once every earlier end has added into them, and then
each is searched once, placing the rows to all later ends together.
``jacobi_trudi_terms`` lists the terms.
"""

from __future__ import annotations

from bisect import bisect_right
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
    one length at a time by the kernel of the determinant route, largest
    last, which fills what every column lacks in exactly one way; the
    placements are charged to the default budget's ``max_work``.  No
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
        spent = _place_rows(states, {q: reached}, n, m, spent, DEFAULT_BUDGET)
        states = reached
    return sum(states.values())


def _place_rows(
    states: dict, into: dict, n: int, m: int, spent: int, budget: EnumerationBudget
) -> int:
    """Add one row to every state for each row length q in ``into``, summing
    the results into ``into[q]``; return ``spent`` plus the placements made,
    raising past the budget.

    A state is the ascending tuple of the positive column fills (parts <= m,
    at most n of them), weighted by the matrices so far that reach it.  The
    g columns of fill u, for u = 0 the n - len unused ones, form a class: the
    row gives k_1 of them one more unit, k_2 of the rest two, ... up to m - u,
    in comb(g, k_1) * comb(g - k_1, k_2) * ... ways.  One search per state
    makes these choices class by class for every length at once: a node
    whose units reach a length q by an increment is one placement of q, and
    it goes on placing units for the longer lengths.  A frame is a node and
    the least increment it may still try; popping it pushes the node's next
    increment, or past the last one its move to the next class, then its
    children, so the stack holds a few frames per node of the current path.
    No frame is pushed whose units cannot reach the nearest length above
    them, the least demanding one, and empty and full classes are skipped.
    """
    cap = budget.max_work
    lengths = sorted(into)
    top = lengths[-1]
    for fills, weight in states.items():
        classes = [(0, n - len(fills), fills)] if n > len(fills) else []
        for u in sorted(set(fills) - {m}):  # full columns take nothing more
            g = fills.count(u)
            classes.append((u, g, fills[fills.index(u) + g :]))  # fills above u
        room = [0] * (len(classes) + 1)  # units that classes c.. can still take
        for c in range(len(classes) - 1, -1, -1):
            room[c] = room[c + 1] + classes[c][1] * (m - classes[c][0])
        # class, least increment, its columns left, units placed, ways, fills
        stack = [(0, 1, classes[0][1], 0, weight, ())] if room[0] >= lengths[0] else []
        while stack:
            c, t, free, placed, ways, done = stack.pop()
            u, _, rest = classes[c]
            left = lengths[bisect_right(lengths, placed)] - placed  # to the next length
            # k columns at +t leave room for the rest iff k * (span - t) <= slack,
            # so no t below span - slack places anything
            span = m - u
            slack = free * span + room[c + 1] - left
            if t < span - slack:
                t = span - slack
            stop = min(span, top - placed)
            if t < stop:
                stack.append((c, t + 1, free, placed, ways, done))
            elif room[c + 1] >= left:
                stack.append((c + 1, 1, classes[c + 1][1], placed, ways,
                              done + (u,) * free if u else done))
            if t > stop:
                continue
            for k in range(1, min(free, (top - placed) // t) + 1):
                if k * (span - t) > slack:
                    break  # k columns stuck at +t leave too little room
                p = placed + k * t
                w = ways * comb(free, k)
                d = done + (u + t,) * k
                target = into.get(p)
                if target is not None:
                    spent += 1
                    if spent > cap:
                        raise budget.refusal("Jacobi-Trudi placements")
                    key = tuple(sorted(d + (u,) * (free - k) + rest if u else d + rest))
                    target[key] = target.get(key, 0) + w
                if p == top:
                    continue
                # a child with no larger increment left here moves straight on,
                # rather than as a frame that would only push that move
                if k < free and t < span and t < top - p:
                    stack.append((c, t + 1, free - k, p, w, d))
                elif room[c + 1] >= lengths[bisect_right(lengths, p)] - p:
                    stack.append((c + 1, 1, classes[c + 1][1], p, w,
                                  d + (u,) * (free - k) if u else d))
    return spent


def count_via_jacobi_trudi(
    descents: DescentSet, n: int, m: int, budget: EnumerationBudget | None = None
) -> int:
    """The determinant route to the multiset descent count.

    A coarsening of the ribbon's rows is a chain through the prefix ends
    0 = e_0 < ... < e_k = largest plus a top block.  Grouping the chains by
    their last end, G[0] = {(): 1} and G[j] = -sum_{i<j} (G[i] with a row of
    e_j - e_i placed).  The chain is pushed, not pulled: once every i' < i
    has added into G[i], it is complete, and one search per state of G[i]
    places the rows of every length e_j - e_i, j > i, at once.  The top
    block fills every column up to m in one way, so the count is (-1)**k
    times the total weight of all the G[i], so 1 for the empty set.  When
    n*m <= largest there is no ribbon and no word: the count is 0, as on
    every other route.  ``max_work`` caps the placements of the whole chain.
    """
    require_positive(n=n, m=m)
    if descents and descents.largest >= n * m:
        return 0  # no successor position left for the final descent
    budget = budget or DEFAULT_BUDGET
    spent = total = 0
    ends = (0, *descents.elements)
    reached = [{(): -1}, *({} for _ in descents)]  # G[0] negated, like the rest
    for i, e in enumerate(ends):
        states = {key: -w for key, w in reached.pop(0).items() if w}
        total += sum(states.values())
        if reached:
            later = {f - e: into for f, into in zip(ends[i + 1 :], reached)}
            spent = _place_rows(states, later, n, m, spent, budget)
    return -total if len(descents) % 2 else total
