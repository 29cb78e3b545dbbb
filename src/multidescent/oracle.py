"""Brute-force counters that serve as ground truth for the formula routes.

They count words one at a time, one range at a time or, in the histogram,
one prefix state at a time, never by a formula of the routes they check, and
they are trusted because the ``itertools.product`` and permutation
references in ``tests/test_oracle.py`` agree with them.
:func:`descent_histogram` tallies every word of one (n, m) by one
left-to-right transfer over (values left, last value) states, each holding
its words by descent mask, and :func:`count_naive` reads one set off it.
Every other counter counts over one walker, ``_pattern_walk``, which lists
words with a prescribed drop pattern and per-value caps on an explicit
stack, without merging words, and stops as many positions short as its
caller asks, handing over the next range with three bit masks, of the
values at most zero, one and two uses below their caps, and the mask of
the values held; it keeps each mask in O(1) a step.  ``count_prefix``
stops three positions short and reads what each third-to-last range
counts and charges off prefix tables keyed by the masks, built once per
call for each key, so a handover costs O(1) once its table is built.  Two
kernels stop two positions short and place the second-to-last value in a
loop of their own: ``_last_counts`` tallies the words by last value, and
:func:`witness_counts` the witnesses of every coefficient index.
:func:`onto_counts` reads the witnesses off the last-value tallies by
inclusion-exclusion, so the two kernels check each other.  The budget is
charged in one unit: 1 per value placed before the last position, and the
size of each last range; each kernel charges a second-to-last range it is
handed, or that a third-to-last range holds, before it counts it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterator, Sequence

from .core import (
    BudgetExceededError,
    DescentSet,
    DomainError,
    require_positive,
    strict_ints,
)


@dataclass(frozen=True)
class EnumerationBudget:
    """The one work cap, a positive ``int`` (nothing is coerced), that every
    counting route charges in its own unit: full enumeration its
    arrangements, a word walk the values it places or offers to the last
    position, the recurrence the (state, T) transitions of all its levels'
    DPs, each weighted by the 64-bit words of its masks (1 + ``largest`` //
    64), the Jacobi-Trudi chain its placements plus, for each state it
    stores, the 64-bit words of the state's packed key past the first (so
    the budget bounds the memory its keys take), and coefficient
    extraction, against the default budget, its closed-form products and
    difference-table subtractions.  Passing it raises
    ``BudgetExceededError`` naming ``max_work``."""

    max_work: int = 10_000_000

    def __post_init__(self) -> None:
        require_positive(max_work=self.max_work)

    def refusal(self, work: str) -> BudgetExceededError:
        """The error a route raises once its ``work`` passes the cap."""
        return BudgetExceededError(f"{work}, more than max_work = {self.max_work}")


DEFAULT_BUDGET = EnumerationBudget()
_WALK_WORK = "values placed by a word walk"  # what a walk's refusal names
_TABLE_CELLS = 1 << 16  # count_prefix holds this many over n + 1 tables at once


def descent_histogram(
    n: int, m: int, budget: EnumerationBudget | None = None
) -> dict[DescentSet, int]:
    """Tally the descent sets of all words holding each of 1..n exactly m times.

    One left-to-right transfer: a layer maps each state, the counts of the
    values still to place and the last value placed, to the words of its
    prefixes by descent mask (bit p: a strict drop after position p + 1).
    Placing a value below the last one sets the bit of the drop, and only
    two layers are alive at once.  A layer holds no more entries than there
    are distinct prefixes of its length, so no more than the arrangements.
    At the end the masks are merged across states and become
    ``DescentSet`` keys; sets no word realizes are absent, and nothing is
    kept across calls.  Refuses to start when the (n*m)! / (m!)**n
    arrangements, or the n*m cells of one word, exceed the budget's
    ``max_work``; the one word of n = 1 is answered without a walk.
    """
    require_positive(n=n, m=m)
    budget = budget or DEFAULT_BUDGET
    cells = n * m
    work = f"full enumeration at n = {n}, m = {m}"
    if cells > budget.max_work:
        raise budget.refusal(work)
    if n == 1:
        return {DescentSet(): 1}  # the one sorted word
    arrangements = 1  # one copy of one value at a time: it never shrinks
    for size in range(1, cells + 1):
        arrangements = arrangements * size // ((size - 1) // n + 1)
        if arrangements > budget.max_work:
            raise budget.refusal(work)
    # (counts left of 1..n, last value or 0) -> descent mask -> words
    layer = {((m,) * n, 0): {0: 1}}
    for pos in range(cells):
        nxt: dict[tuple[tuple[int, ...], int], dict[int, int]] = {}
        for (left, last), masks in layer.items():
            for v, c in enumerate(left, 1):
                if not c:
                    continue
                into = nxt.setdefault((left[: v - 1] + (c - 1,) + left[v:], v), {})
                bit = 1 << pos - 1 if v < last else 0  # a drop after position pos
                for mask, words in masks.items():
                    mask |= bit
                    into[mask] = into.get(mask, 0) + words
        layer = nxt
    merged: dict[int, int] = {}
    for masks in layer.values():
        for mask, words in masks.items():
            merged[mask] = merged.get(mask, 0) + words
    return {
        DescentSet._of(tuple(p + 1 for p in range(cells - 1) if mask >> p & 1)): words
        for mask, words in merged.items()
    }


def count_naive(
    descents: DescentSet, n: int, m: int, budget: EnumerationBudget | None = None
) -> int:
    """Count words holding each of 1..n exactly m times with this descent set.

    Its entry of :func:`descent_histogram`, with the same refusals: the
    transfer tallies every word by its mask, whichever set is asked for, so
    one call costs as much as the whole histogram; read several sets off one
    histogram instead.
    """
    return descent_histogram(n, m, budget).get(descents, 0)


def _range_work(first: int, end: int, capped: int, fall: bool, top: int) -> int:
    """The charge of a second-to-last range(first, end): for each value a
    below its cap, a after a drop to the last value and 1 + top - a after
    an ascent, which is 1 for placing a plus the size of a's last range."""
    if fall:
        work = (first + end - 1) * (end - first) // 2
    else:
        work = (2 * top + 3 - first - end) * (end - first) // 2
    rest = capped & ((1 << end) - (1 << first))
    while rest:  # less the charges of the capped values
        low = rest & -rest
        a = low.bit_length() - 1
        work -= a if fall else 1 + top - a
        rest ^= low
    return work


def _open_masks(caps: Sequence[int]) -> list[int]:
    """The walk's masks before any value is placed: bit v of mask d is set
    when ``caps[v-1]`` <= d, for d = 0, 1 and 2.  One cap for every value
    gives full or empty masks at once; other caps are read off one string
    of bits per mask, so a wide alphabet costs O(len(caps)) either way."""
    if caps and caps.count(caps[0]) == len(caps):
        every = (1 << len(caps) + 1) - 2  # the values 1..len(caps)
        return [every if caps[0] <= d else 0 for d in range(3)]
    return [
        int("".join("1" if c <= d else "0" for c in reversed(caps)) + "0", 2)
        for d in range(3)
    ]


def _pattern_walk(
    descents: DescentSet,
    caps: Sequence[int],
    budget: EnumerationBudget,
    short: int,
) -> Iterator[tuple[int, int, list[int], int, list[int]]]:
    """Walk the words of length ``largest`` >= ``short`` over 1..len(caps)
    that use each value v at most ``caps[v-1]`` times and drop strictly
    exactly at the descent set without its largest element, ``short``
    positions short, 3 or 2.  Yield ``(lo, hi, masks, held, spent)`` once
    per word without its last ``short`` values.

    The next value, third-to-last when ``short`` is 3 and second-to-last
    when it is 2, is any v in range(lo, hi) below its cap, and the caller
    places it and the values after it, charging them as it goes: with
    ``short`` 2, a range's :func:`_range_work` before it reads the range.
    ``masks`` is a list of three bit masks: bit v of ``masks[d]`` is set
    when v has at most d uses left below its cap, so ``masks[0]`` holds
    the values at their caps, and ``least``, the smallest value below its
    cap, is its lowest clear bit above bit 0.  ``held`` is the mask of the
    values the word holds.  Placing a value, or taking it back, changes at
    most one bit of one mask and of ``held``, so the masks cost O(1) a
    step.  The list is live and the walk's own: read it, never change it.
    ``spent`` is a one-item list holding the walk's running charge: the
    caller adds its own charges to it, refusing once they pass
    ``max_work``, and the walk goes on from there.  The walk is a
    depth-first search on an explicit stack, the value and the range of
    values still open at each position, so memory is O(largest +
    len(caps)) and no length meets a recursion limit.  Nothing is memoized
    or merged: every word without its last ``short`` values is reached on
    its own, and the walk hands it over right after placing its last
    value, before it tries the next; a word of ``short`` values places
    nothing, and its first range is handed over once, with the open masks.
    The walk charges 1 per value it places, more than the budget's
    ``max_work`` raises, and a word reaching the last position costs at
    least ``largest - 1``, so a walk where that passes ``max_work`` is
    refused before it allocates, even when no word fits.
    """
    length = descents.largest
    if length - 1 > budget.max_work:
        raise budget.refusal(_WALK_WORK)
    falls = [False] * length  # falls[p]: the word drops after position p
    for p in descents.elements[:-1]:
        falls[p] = True
    cap = (0, *caps)
    top = len(cap)
    left = list(cap)  # left[v]: the uses of v still open
    masks = _open_masks(caps)
    held = 0
    spent = [0]
    last = length - short  # the last position the walk places
    if not last:  # a word of `short` values: its first range is the open one
        yield 1, top, masks, held, spent
        return
    word = [0] * length  # word[p]: the value at position p, 0 before the first
    lo = [1] * length  # position p takes values in range(lo[p], hi[p])
    hi = [top] * length
    limit = budget.max_work
    placed = 0
    pos = 1
    while pos:
        value = word[pos]
        if value:  # take the last value back and try the ones after it
            d = left[value]
            left[value] = d + 1
            if d < 3:
                masks[d] ^= 1 << value
            if d + 1 == cap[value]:
                held ^= 1 << value
            value += 1
        else:
            value = lo[pos]
        end = hi[pos]
        while value < end and not left[value]:
            value += 1
        if value == end:
            word[pos] = 0
            pos -= 1
            continue
        placed += 1
        if placed > limit:
            raise budget.refusal(_WALK_WORK)
        d = left[value] - 1
        left[value] = d
        if d < 3:
            masks[d] |= 1 << value
        held |= 1 << value
        word[pos] = value
        if pos == last:  # hand the next range over, and stay
            spent[0] = placed
            if falls[pos]:
                yield 1, value, masks, held, spent
            else:
                yield value, top, masks, held, spent
            placed = spent[0]
            continue
        if falls[pos]:
            lo[pos + 1], hi[pos + 1] = 1, value
        else:
            lo[pos + 1], hi[pos + 1] = value, top
        pos += 1


def _one_value(caps: Sequence[int], budget: EnumerationBudget) -> int:
    """The mask of the words of one value, the values below their caps: a
    last range alone, charged in full."""
    if len(caps) > budget.max_work:
        raise budget.refusal(_WALK_WORK)
    return sum(1 << v for v, c in enumerate(caps, 1) if c)


def _last_counts(
    descents: DescentSet,
    caps: Sequence[int],
    budget: EnumerationBudget = DEFAULT_BUDGET,
) -> list[int]:
    """Count the words of :func:`_pattern_walk` by last value: entry v of
    the list, for v in 1..len(caps), counts the words ending in v, and
    entry 0 is 0.

    The walk stops two positions short and hands over each second-to-last
    range, which is charged before it is read.  Each value ``a`` of it is
    placed in a loop and marked once; a's last range is range(1, a) after a
    drop and range(a, len(caps) + 1) after an ascent, so after the walk one
    running sum of the marks counts, for each v, the ranges that hold v.
    The values at their caps once ``a`` is placed hold no last place: each
    is taken off its own entry as it is met.
    """
    top = len(caps) + 1
    if descents.largest == 1:
        free = _one_value(caps, budget)
        return [free >> v & 1 for v in range(top)]
    fall = descents.largest - 1 in descents
    limit = budget.max_work
    marks = [0] * (top + 1)
    tally = [0] * top
    for first, end, masks, _, spent in _pattern_walk(descents, caps, budget, 2):
        full, near, _ = masks
        work = spent[0] + _range_work(first, end, full, fall, top)
        if work > limit:
            raise budget.refusal(_WALK_WORK)
        spent[0] = work
        for a in range(first, end):
            bit = 1 << a
            if full & bit:
                continue
            marks[a] += 1
            rest = (full | near & bit) & (bit - 2 if fall else -bit)
            while rest:
                low = rest & -rest
                tally[low.bit_length() - 1] -= 1
                rest ^= low
    run = 0
    if fall:  # v lies in range(1, a) for every a above it
        for v in range(top - 1, 0, -1):
            run += marks[v + 1]
            tally[v] += run
    else:  # v lies in range(a, top) for every a up to it
        for v in range(1, top):
            run += marks[v]
            tally[v] += run
    return tally


def _witness_counts(
    descents: DescentSet, budget: EnumerationBudget = DEFAULT_BUDGET
) -> tuple[tuple[int, int], ...]:
    """:func:`witness_counts` under ``budget``.

    A word over 1..largest+1 that ends above 1 is a witness at index i =
    max(word) - 1 when it holds every value of 2..max(word), and at no
    other index.  So, with ``a`` placed and ``h`` the largest value held,
    the last value is the missing one of 2..h when exactly one is missing
    (index h - 1), any value of 2..h of a's last range when none is (index
    h - 1), or h + 1 (index h).  The word counts toward the onto-full side
    when it holds 1, and the onto-upper side otherwise.  The walk stops two
    positions short, and each second-to-last range it hands over is
    charged before it is read; a range handed over while more than two
    values of 2..h are missing completes no witness and is skipped.  Each
    value is capped at ``largest`` uses, which no value reaches before the
    last position, so every second-to-last and last range is taken whole.
    """
    length = descents.largest
    caps = (length,) * _free_values(length)
    if length == 1:
        _one_value(caps, budget)
        return ((0, 0), (1, 0))  # of the words (1) and (2), only (2) ends above 1
    top = length + 2
    fall = length - 1 in descents
    limit = budget.max_work
    sides = ([0] * top, [0] * top)  # onto-upper, onto-full, by index
    for first, end, masks, held, spent in _pattern_walk(descents, caps, budget, 2):
        work = spent[0] + _range_work(first, end, masks[0], fall, top)
        if work > limit:
            raise budget.refusal(_WALK_WORK)
        spent[0] = work
        high = max(held.bit_length(), 2) - 1  # the largest value held, or 1
        if (((1 << high + 1) - 4) & ~held).bit_count() > 2:
            continue
        for a in range(first, end):
            bit = 1 << a
            h = a if a > high else high
            left = ((1 << h + 1) - 4) & ~held & ~bit
            if left & (left - 1):
                continue  # two values of 2..h are still missing
            last = (bit - 2 if fall else (1 << top) - bit) & -3  # less the value 1
            side = sides[(held | bit) >> 1 & 1]
            if left:
                side[h - 1] += last >> left.bit_length() - 1 & 1
            else:
                side[h - 1] += (last & (2 << h) - 1).bit_count()
                side[h] += last >> h + 1 & 1
    return tuple(zip(sides[0][: length + 1], sides[1][: length + 1]))


class _HandoverSums:
    """Running sums of what ``count_prefix``'s third-to-last values x count
    and are charged, for one key of the walk's masks.

    The ranges of x of one call all start at the same end: range(1, u)
    after a drop to x, scanned up from 1, or range(u, n + 1) after an
    ascent, scanned down from n.  Step i passes x = i - 1 going up and x =
    n + 1 - i going down, and entry i of ``counts`` and ``charges`` sums
    the free x of the first i steps, so a handover reads its range off one
    entry and the scan passes no value outside the ranges it serves.  What
    x counts reads the free values on a's side of x: their number, those
    of them one use below the cap, and their charges.  When the scan has
    passed that side, these are its running counts r, h and s; otherwise
    they are the totals p, h_all and s_all, read once off the whole masks
    of the key, less the running counts and x itself.  Counted before a is
    placed, a free value's rank is the number of free values below it, and
    the free values of one second-to-last range have consecutive ranks, so
    x's range is counted as sums of ranks.  The scan goes only as far as a
    handover has read, and resumes from there.
    """

    __slots__ = ("counts", "charges", "masks", "p", "h_all", "s_all", "r", "h", "s")

    def __init__(
        self, key: tuple[int, int, int, int], top: int, fall: bool, ahead: bool
    ) -> None:
        *self.masks, self.p = key  # at most zero, one and two uses left; p
        capped, one, _ = self.masks
        if ahead:  # a's side lies ahead of the scan: the whole masks' totals
            self.p = (((1 << top) - 2) & ~capped).bit_count()
            self.h_all = (one & ~capped).bit_count()
            self.s_all = _range_work(1, top, capped, fall, top)
        self.counts, self.charges = [0], [0]
        self.r = self.h = self.s = 0

    def extend(
        self, reach: int, room: int, top: int, up: bool, drop: bool, fall: bool
    ) -> None:
        """Scan on to step ``reach``, but stop once the charges pass
        ``room``: the handover reading them is refused, and the scan goes
        no further than the charge it is refused for."""
        counts, charges, p = self.counts, self.charges, self.p
        count, charge, r, h, s = counts[-1], charges[-1], self.r, self.h, self.s
        behind = up == drop  # the scan has passed a's side of x
        done = len(counts)
        if up:
            xs = range(done - 1, reach)
            low = done - 1
        else:
            xs = range(top - done, top - reach - 1, -1)
            low = top - reach
        # the masks' bits of the values to pass, so that a step costs O(1)
        span = (1 << len(xs)) - 1
        capped, one, two = self.masks
        capped, one, two = capped >> low & span, one >> low & span, two >> low & span
        for x in xs:
            j = x - low
            if x and not capped >> j & 1:
                k = one >> j & 1  # x fills its cap
                w = x if fall else top + 1 - x  # x's charge as a second-to-last value
                if behind:  # the free values on a's side, those one below, charges
                    ra, ha, sa = r, h, s
                else:
                    ra, ha, sa = p - 1 - r, self.h_all - h - k, self.s_all - s - w
                if drop:  # a in range(1, x): ranks 0..ra-1
                    charge += 1 + sa
                    if fall:  # each a's rank, less 1 unless a is least
                        count += ra * (ra - 1) // 2 - ra + (ra > 0)
                    else:  # the free values from a up, less a if it fills, less least
                        count += ra * (p - k) - ra * (ra - 1) // 2 - ha - (ra > 0)
                else:  # a in range(x, top): x and the ra free values above it
                    charge += 1 + sa + (not k) * w
                    c = ra + 1 - k  # the free values of range(x, top) once x is placed
                    below = p - ra - 1  # the free values below x
                    ranks = c * below + c * (c - 1) // 2
                    least = not below and c > 0
                    if fall:
                        count += ranks - c + least
                    else:  # x is one use below its cap once placed when two below
                        twice = not k and two >> j & 1
                        count += c * (p - k) - ranks - ha - twice - least
                r += 1
                h += k
                s += w
            counts.append(count)
            charges.append(charge)
            if charge > room:
                break
        self.r, self.h, self.s = r, h, s


def count_prefix(
    descents: DescentSet, n: int, m: int, budget: EnumerationBudget | None = None
) -> int:
    """Count the same words as :func:`count_naive`, but faster.

    A word is determined by its first ``largest`` values, the rest of the
    multiset sorted after them (the whole word for the empty set: count 1),
    so the final descent holds exactly when the last value exceeds the
    smallest value still below its cap after it.  Only the prefixes are
    walked, pruned by the forced comparisons, and the walk stops three
    positions short; a prefix of one value is its last range, and all its
    values count but 1.

    The rule: each second-to-last value ``a`` counts the free values (those
    below their caps once ``a`` is placed) of its last range, range(1, a)
    after a drop or range(a, n + 1) after an ascent, less the least free
    value if it lies there.  What a third-to-last value ``x`` counts, and
    what it is charged, 1 plus the charge of its second-to-last range,
    depend only on x, the number p of values below their caps and the
    walk's masks: the values at their caps and, where the case reads them,
    those one and two uses below.  The ranges of x of one call all start
    at 1 or all end at n, so :class:`_HandoverSums` sums these over x once
    for each key, scanning from that end, and a handover reads its range
    off one entry.  A key holds what its case reads and no more: the
    capped mask alone when x drops to ``a`` and ``a`` to the last value,
    all three masks when both steps rise, and the capped and one-below
    masks otherwise.  When the scan has passed a's side of x, the masks
    are cut to the values the scan passes, with p where a formula reads
    it, so prefixes that differ only past them share a table; otherwise
    the whole masks give the totals of a's side.  The tables live in a
    dict of this call, nothing is kept across calls, and a dict of
    ``_TABLE_CELLS`` // (n + 1) tables is emptied before the next is
    built, so a wide alphabet with little reuse holds a bounded number of
    them.  A prefix of two values has one second-to-last range, range(1, n
    + 1), and no walk.  The walk and the tables charge the budget for the
    values placed or offered, before they are counted, and a scan stops
    once its range is over the budget, so more than ``max_work`` values
    are refused before any cap is built and a range before it is passed.
    """
    require_positive(n=n, m=m)
    if not descents:
        return 1  # no prefix: the whole word is its sorted tail
    length = descents.largest
    if length >= n * m:
        return 0  # no successor position left for the final descent
    budget = budget or DEFAULT_BUDGET
    limit = budget.max_work
    if n > limit:
        raise budget.refusal(_WALK_WORK)
    if length == 1:
        return n - 1  # every last value but 1
    top = n + 1
    fall = length - 1 in descents  # a drops to the last value
    if length == 2:  # all n values free: ranks 0..n-1, least 1, none capped
        if _range_work(1, top, 0, fall, top) > limit:
            raise budget.refusal(_WALK_WORK)
        return (n - 1) * (n - 2) // 2 if fall else n * top // 2 - 1 - (m == 1) * n
    drop = length - 2 in descents  # x drops to a
    up = length - 3 in descents  # the word drops to x: x in range(1, u)
    ahead = up != drop  # a's side of x lies ahead of the scan
    # what each case reads besides the capped mask: the values at most one
    # use below their caps and p unless both steps drop, two when both rise
    one_read = 0 if drop and fall else -1
    two_read = 0 if drop or fall else -1
    p_read = not (drop and fall)
    tables: dict[tuple[int, int, int, int], _HandoverSums] = {}
    most = max(1, _TABLE_CELLS // top)  # the tables held at once
    total = 0
    for lo, hi, masks, _, spent in _pattern_walk(descents, (m,) * n, budget, 3):
        reach = hi if up else top - lo  # the steps that pass range(lo, hi)
        capped, one, two = masks
        if ahead:
            key = capped, one & one_read, two & two_read, 0
        else:  # only the values the scan passes, and p
            keep = (1 << hi) - 1 if up else -1 << lo
            free = n - capped.bit_count() if p_read else 0
            key = capped & keep, one & keep & one_read, two & keep & two_read, free
        table = tables.get(key)
        if table is None:
            if len(tables) >= most:
                tables.clear()
            table = tables[key] = _HandoverSums(key, top, fall, ahead)
        counts, charges = table.counts, table.charges
        if len(counts) <= reach:
            table.extend(reach, limit - spent[0], top, up, drop, fall)
            if len(counts) <= reach:  # stopped short: the range is over budget
                raise budget.refusal(_WALK_WORK)
        work = spent[0] + charges[reach]
        if work > limit:
            raise budget.refusal(_WALK_WORK)
        spent[0] = work
        total += counts[reach]
    return total


def count_content(parts: Sequence[int], descents: DescentSet) -> int:
    """Count length-``largest`` words with prescribed value multiplicities.

    Value j (1-based) must appear exactly ``parts[j-1]`` times, and the strict
    drops must sit exactly at the descent set without its largest element.
    Only the relative order of values matters, so this count is the same for
    any alphabet of ``len(parts)`` values.  No counting route or report uses
    it: only the tests and the bench's ``oracle.count_content`` rows do.
    """
    parts = strict_ints(parts, "content parts", 1)
    if sum(parts) != descents.largest:
        raise DomainError(f"content sums to {sum(parts)}, expected {descents.largest}")
    # Caps that add up to the length are met exactly by every word.
    return sum(_last_counts(descents, parts))


def _free_values(i: int) -> int:
    """The i + 1 values of the words over 1..i+1, each free to repeat, that
    the witness and last-value counts walk, once the index ``i`` is checked.

    A walk charges every free value at least once (placed at position 1,
    offered in the first range, or counted in the one last range), so more
    free values than ``max_work`` are refused before any cap is built.
    """
    strict_ints((i,), "coefficient index", 0)
    if i + 1 > DEFAULT_BUDGET.max_work:
        raise DEFAULT_BUDGET.refusal(_WALK_WORK)
    return i + 1


def last_value_counts(descents: DescentSet, n: int) -> tuple[int, ...]:
    """Count length-``largest`` words over 1..n, drops exactly at the descent
    set without its largest element, by last value: entry j - 1 counts the
    words ending in j.

    No multiplicity cap applies here; every value may repeat freely.  One
    walk tallies every last value, so this costs what one
    :func:`count_last_fixed` does.
    """
    require_positive(n=n)
    caps = (descents.largest,) * _free_values(n - 1)
    return tuple(_last_counts(descents, caps)[1:])


def count_last_fixed(descents: DescentSet, n: int, j: int) -> int:
    """The entry of :func:`last_value_counts` for last value ``j``."""
    require_positive(n=n, j=j)
    if j > n:
        raise DomainError(f"last value {j} outside 1..{n}")
    return last_value_counts(descents, n)[j - 1]


def witness_counts(descents: DescentSet) -> tuple[tuple[int, int], ...]:
    """``(count_onto_upper(descents, i), count_onto_full(descents, i))`` for
    every i in 0..largest, from one walk of the words over 1..largest+1.

    Their sum at i is ``count_coeff_witnesses(descents, i)``, and past
    ``largest`` every witness counter counts nothing.  The trio reads
    :func:`onto_counts` instead, whose rows come from the last-value
    tallies: a second kernel over the same walk, so the two tables check
    each other.  The walk charges what ``last_value_counts(descents,
    largest + 1)`` charges, and refuses where it does.
    """
    return _witness_counts(descents)


def onto_counts(descents: DescentSet, i: int) -> tuple[tuple[int, int], ...]:
    """``(count_onto_upper(descents, k), count_onto_full(descents, k))`` for
    every k in 0..i, by inclusion-exclusion over the last-value tallies.

    Only the relative order of a word's values matters, so the words over
    any t values number B(t), the sum of ``last_value_counts(descents,
    t)``, and A(t) of them, B(t) less that tally's first entry, end above
    their least value; B(0) = 0.  So onto_upper(k) is the sum over t <= k of
    (-1)**(k-t) C(k, t) B(t), and onto_full(k) the sum over 1 <= t <= k+1
    of (-1)**(k+1-t) (C(k, t-1) A(t) + C(k, t) B(t)).  A word holds at most
    ``largest`` values, so the rows past ``largest`` are (0, 0).  With t' =
    min(i, largest), the tallies run for t = t'+1 down to 1, widest first,
    so a refusal costs that one walk.  Each walk is charged to the default
    budget on its own; on the sets within {1..7} all of them together
    charge at most 2.72 times what the widest one does.
    """
    _free_values(i)  # refuses a bad or too wide index before any walk
    top = min(i, descents.largest)
    every, below = [0] * (top + 2), [0] * (top + 2)  # B(t), A(t)
    for t in range(top + 1, 0, -1):
        counts = last_value_counts(descents, t)
        every[t] = sum(counts)
        below[t] = every[t] - counts[0]
    rows = []
    for k in range(top + 1):
        upper = sum((-1) ** (k - t) * comb(k, t) * every[t] for t in range(k + 1))
        full = sum(
            (-1) ** (k + 1 - t) * (comb(k, t - 1) * below[t] + comb(k, t) * every[t])
            for t in range(1, k + 2)
        )
        rows.append((upper, full))
    return (*rows, *((0, 0),) * (i - top))


def _onto_row(descents: DescentSet, i: int) -> tuple[int, int]:
    """Row i of :func:`onto_counts`, read off the rows up to min(i,
    ``largest``) so that no padding row past ``largest`` is built: (0, 0)
    there.  The index is checked, and refused when too wide, first."""
    _free_values(i)
    rows = onto_counts(descents, min(i, descents.largest))
    return rows[i] if i < len(rows) else (0, 0)


def count_coeff_witnesses(descents: DescentSet, i: int) -> int:
    """Count the words witnessing coefficient ``i`` in the offset -1 base.

    These are length-``largest`` words with drops exactly at the descent set
    without its largest element, values within 1..i+1, every value of
    2..i+1 present (1 itself is optional), and last value different from 1.
    The sum of row i of :func:`onto_counts`, so 0 for ``i`` above
    ``largest``, where a word cannot hold every value asked for.
    """
    return sum(_onto_row(descents, i))


def count_onto_upper(descents: DescentSet, i: int) -> int:
    """Witness words whose value set is exactly {2, ..., i+1}: the first
    entry of row i of :func:`onto_counts`.

    For i = 0 the value set is empty and no word of positive length exists,
    so the count is 0 by convention.
    """
    return _onto_row(descents, i)[0]


def count_onto_full(descents: DescentSet, i: int) -> int:
    """Witness words using all of {1, ..., i+1} with last value not 1: the
    second entry of row i of :func:`onto_counts`."""
    return _onto_row(descents, i)[1]
