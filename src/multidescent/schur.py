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
each is searched once, placing the rows to all later ends together.  A
state is one ``int`` whose digit f, ``n.bit_length()`` bits wide, counts
the columns of fill f, so moving columns between fills is two shifts and
a sum.  The last end is only ever summed, so its placements go into one
running total and none of its states is stored; each state that is stored
is charged its 64-bit words past the first, which bounds the chain's
memory by the budget.  ``jacobi_trudi_terms`` lists the terms.
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
    last, which fills what every column lacks in exactly one way, so the
    placements of the second-largest row are summed, not stored.  The
    placements are charged to the default budget's ``max_work``.  No
    counting route uses it: only demo 04, the tests and the bench's
    ``schur.rect_coeff`` rows do.
    """
    require_positive(n=n, m=m)
    degrees = strict_ints(h_degrees, "degrees", 0)
    if sum(degrees) != n * m:
        return 0
    *rows, _ = sorted(d for d in degrees if d)  # the largest is not placed
    if not rows:
        return 1  # one row fills every column
    states = {0: 1}
    spent = 0
    for q in rows[:-1]:
        reached: dict[int, int] = {}
        spent, _ = _place_rows(states, {q: reached}, None, n, m, spent, DEFAULT_BUDGET)
        states = reached
    return _place_rows(states, {}, rows[-1], n, m, spent, DEFAULT_BUDGET)[1]


def _place_rows(
    states: dict[int, int],
    into: dict[int, dict[int, int]],
    last: int | None,
    n: int,
    m: int,
    spent: int,
    budget: EnumerationBudget,
) -> tuple[int, int]:
    """Add one row to every state for each row length q in ``into``, summing
    the results into ``into[q]``, and for ``last``, when given and longer
    than every q, into one running total; return ``spent`` plus the
    placements made, raising past the budget, and that total.

    A state is one ``int`` of fill counts, weighted by the matrices so far
    that reach it: its digit f, ``b = n.bit_length()`` bits wide at bit
    b * (f - 1), counts the columns of fill f for f = 1..m, and the other
    columns, n less the digits' sum, hold 0.  The g columns of fill u form a
    class: the row gives k_1 of them one more unit, k_2 of the rest two, ...
    up to m - u, in comb(g, k_1) * comb(g - k_1, k_2) * ... ways, and moving
    k columns from fill u to u + t adds k at digit u + t and takes it from
    digit u.  The classes are read off the key from its lowest set bit up.
    One search per state makes these choices class by class for every
    length at once: a node whose units reach a length q by an increment is
    one placement of q, and it goes on placing units for the longer lengths.
    A node past every length in ``into`` builds no key.  A frame is a node
    and the least increment it may still try; popping it pushes the node's
    next increment, or past the last one its move to the next class, then
    its children, so the stack holds a few frames per node of the current
    path.  No frame is pushed whose units cannot reach the nearest length
    above them, the least demanding one, and empty and full classes are
    skipped.  A key grows with its largest fill, so each state first stored
    costs ``(key.bit_length() - 1) // 64`` more units, none for a key of one
    64-bit word.
    """
    cap = budget.max_work
    lengths = sorted(into) if last is None else [*sorted(into), last]
    top = lengths[-1]
    keep = max(into, default=0)  # no node past it needs its key
    b = n.bit_length()
    mask = (1 << b) - 1
    total = 0
    for key, weight in states.items():
        classes = []  # fill, columns, bit of the fill's digit
        used = 0
        x = key
        while x:
            u = ((x & -x).bit_length() - 1) // b + 1
            low = b * (u - 1)
            g = x >> low & mask
            x ^= g << low
            used += g
            if u < m:  # full columns take nothing more
                classes.append((u, g, low))
        if used < n:
            classes.insert(0, (0, n - used, -b))
        room = [0] * (len(classes) + 1)  # units that classes c.. can still take
        for c in range(len(classes) - 1, -1, -1):
            room[c] = room[c + 1] + classes[c][1] * (m - classes[c][0])
        # class, least increment, its columns left, units placed, ways, key
        stack = [(0, 1, classes[0][1], 0, weight, key)] if room[0] >= lengths[0] else []
        while stack:
            c, t, free, placed, ways, cur = stack.pop()
            u, _, low = classes[c]
            left = lengths[bisect_right(lengths, placed)] - placed  # to the next length
            # k columns at +t leave room for the rest iff k * (span - t) <= slack,
            # so no t below span - slack places anything
            span = m - u
            slack = free * span + room[c + 1] - left
            if t < span - slack:
                t = span - slack
            over = top - placed  # units to the longest length
            stop = span if span < over else over
            if t < stop:
                stack.append((c, t + 1, free, placed, ways, cur))
            elif room[c + 1] >= left:
                stack.append((c + 1, 1, classes[c + 1][1], placed, ways, cur))
            if t > stop:
                continue
            up = low + b * t  # bit of the digit the moved columns reach
            most = over // t
            for k in range(1, (free if free < most else most) + 1):
                if k * (span - t) > slack:
                    break  # k columns stuck at +t leave too little room
                p = placed + k * t
                w = ways * comb(free, k)
                if p == last:
                    spent += 1
                    if spent > cap:
                        raise budget.refusal("Jacobi-Trudi placements")
                    total += w
                    continue
                d = 0
                if p <= keep:
                    d = cur + (k << up) - (k << low if u else 0)
                    target = into.get(p)
                    if target is not None:
                        old = target.get(d)
                        if old is None:
                            spent += d.bit_length() - 1 >> 6
                            old = 0
                        spent += 1
                        if spent > cap:
                            raise budget.refusal("Jacobi-Trudi placements")
                        target[d] = old + w
                if p == top:
                    continue
                # a child with no larger increment left here moves straight on,
                # rather than as a frame that would only push that move
                if k < free and t < span and t < top - p:
                    stack.append((c, t + 1, free - k, p, w, d))
                elif room[c + 1] >= lengths[bisect_right(lengths, p)] - p:
                    stack.append((c + 1, 1, classes[c + 1][1], p, w, d))
    return spent, total


def count_via_jacobi_trudi(
    descents: DescentSet, n: int, m: int, budget: EnumerationBudget | None = None
) -> int:
    """The determinant route to the multiset descent count.

    A coarsening of the ribbon's rows is a chain through the prefix ends
    0 = e_0 < ... < e_k = largest plus a top block.  Grouping the chains by
    their last end, G[0] is the empty state (key 0) of weight 1 and G[j] =
    -sum_{i<j} (G[i] with a row of e_j - e_i placed).  The chain is pushed, not pulled: once every i' < i
    has added into G[i], it is complete, and one search per state of G[i]
    places the rows of every length e_j - e_i, j > i, at once.  The top
    block fills every column up to m in one way, so the count is (-1)**k
    times the total weight of all the G[i], so 1 for the empty set; G[k] is
    only ever summed, so its placements go into one running total and no
    state of it is stored.  When n*m <= largest there is no ribbon and no
    word: the count is 0, as on every other route.  ``max_work`` caps the
    placements of the whole chain, plus the extra 64-bit words of each
    state it stores.
    """
    require_positive(n=n, m=m)
    if not descents:
        return 1  # the one sorted word
    if descents.largest >= n * m:
        return 0  # no successor position left for the final descent
    budget = budget or DEFAULT_BUDGET
    spent = total = 0
    ends = (0, *descents.elements)
    reached = [{0: -1}, *({} for _ in ends[2:])]  # G[0] negated, like the rest
    for i, e in enumerate(ends[:-1]):
        states = {key: -w for key, w in reached.pop(0).items() if w}
        total += sum(states.values())
        later = {f - e: into for f, into in zip(ends[i + 1 :], reached)}
        spent, placed = _place_rows(states, later, ends[-1] - e, n, m, spent, budget)
        total -= placed
    return -total if len(descents) % 2 else total
