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
stack, without memoization, and stops three positions short, handing over
the third-to-last range with a bit mask of the values at their caps.
``count_prefix`` places that value in a loop of its own and counts each
second-to-last range after it at once, as sums of ranks.  Two kernels read
the third-to-last values from ``_second_ranges``, which places and charges
them, and place the second-to-last value in a loop of their own:
``_last_counts`` tallies the words by last value, and :func:`witness_counts`
the witnesses of every coefficient index.  :func:`onto_counts` reads the
witnesses off the last-value tallies by inclusion-exclusion, so the two
kernels check each other.  The budget is charged in one unit: 1 per value
placed before the last position, and the size of each last range, each
third-to-last value charged with its second-to-last range before its caller
counts it; a word of two values has no third-to-last position, and its one
range is counted without a walk.
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
        DescentSet(tuple(p + 1 for p in range(cells - 1) if mask >> p & 1)): words
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


def _pattern_walk(
    descents: DescentSet,
    caps: Sequence[int],
    budget: EnumerationBudget = DEFAULT_BUDGET,
) -> Iterator[tuple[int, int, int, list[int], list[int]]]:
    """Walk the words of length ``largest`` >= 3 over 1..len(caps) that use
    each value v at most ``caps[v-1]`` times and drop strictly exactly at
    the descent set without its largest element, three positions short.
    Yield ``(lo, hi, capped, usage, spent)`` once per word without its last
    three values.

    The third-to-last value is any v in range(lo, hi) below its cap, and
    the caller places it and the two values after it.  ``usage[v]`` is how
    often v occurs in the first ``largest - 3`` positions (``usage[0]``
    stays 0), and bit v of ``capped`` is set when v is at its cap, so
    ``least``, the smallest value below its cap, is its lowest clear bit
    above bit 0.  The list is live and the walk's own: read it, never
    change it.  ``spent`` is a one-item list holding the walk's running
    charge: the caller adds its own charges to it, refusing once they pass
    ``max_work``, and the walk goes on from there.  The walk is a
    depth-first search on an explicit stack, the value and the range of
    values still open at each position, so memory is O(largest +
    len(caps)) and no length meets a recursion limit.  Nothing is memoized
    or merged: every word without its last three values is reached on its
    own.  The walk charges 1 per value it places, more than the budget's
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
    usage = [0] * top
    capped = sum(1 << v for v in range(1, top) if not cap[v])
    stop = length - 2  # the third-to-last position, left to the caller
    word = [0] * stop  # word[p]: the value at position p, 0 before the first
    lo = [1] * length  # position p takes values in range(lo[p], hi[p])
    hi = [top] * length
    limit = budget.max_work
    spent = [0]
    placed = 0
    pos = 1
    while pos:
        if pos == stop:
            spent[0] = placed
            yield lo[pos], hi[pos], capped, usage, spent
            placed = spent[0]
            pos -= 1
            continue
        value = word[pos]
        if value:  # take the last value back and try the ones after it
            if usage[value] == cap[value]:
                capped ^= 1 << value
            usage[value] -= 1
            value += 1
        else:
            value = lo[pos]
        end = hi[pos]
        while value < end and usage[value] >= cap[value]:
            value += 1
        if value == end:
            word[pos] = 0
            pos -= 1
            continue
        placed += 1
        if placed > limit:
            raise budget.refusal(_WALK_WORK)
        usage[value] += 1
        if usage[value] == cap[value]:
            capped |= 1 << value
        word[pos] = value
        if falls[pos]:
            lo[pos + 1], hi[pos + 1] = 1, value
        else:
            lo[pos + 1], hi[pos + 1] = value, top
        pos += 1


def _second_ranges(
    descents: DescentSet,
    caps: Sequence[int],
    budget: EnumerationBudget,
) -> Iterator[tuple[int, int, int, int, int, list[int]]]:
    """Place each third-to-last value ``x`` of the words of
    :func:`_pattern_walk`, ``largest`` >= 2, and yield ``(first, end, full,
    held, x, usage)`` once per x.

    The second-to-last value is then any a in range(first, end) whose bit
    is clear in the cap mask ``full``; ``held`` is the mask of the values
    placed so far, x's bit included, and x is not counted in ``usage``.
    Each x is charged 1 plus the charge of its second-to-last range before
    it is yielded, so a caller that skips it has still paid for it.  A word
    of two values has no third-to-last position: its one second-to-last
    range, range(1, len(caps) + 1), is charged in full and yielded once,
    with x = 0.
    """
    cap = (0, *caps)
    top = len(cap)
    length = descents.largest
    fall = length - 1 in descents  # the word drops before its last value
    limit = budget.max_work
    if length == 2:
        capped = sum(1 << v for v in range(1, top) if not cap[v])
        if _range_work(1, top, capped, fall, top) > limit:
            raise budget.refusal(_WALK_WORK)
        yield 1, top, capped, 0, 0, [0] * top
        return
    drop = length - 2 in descents  # the word drops before its second-to-last value
    for lo, hi, capped, usage, spent in _pattern_walk(descents, caps, budget):
        work = spent[0]
        held = sum(1 << v for v in range(1, top) if usage[v])
        for x in range(lo, hi):
            bit = 1 << x
            if capped & bit:
                continue
            full = capped | bit if usage[x] + 1 == cap[x] else capped
            first, end = (1, x) if drop else (x, top)
            work += 1 + _range_work(first, end, full, fall, top)
            if work > limit:
                raise budget.refusal(_WALK_WORK)
            yield first, end, full, held | bit, x, usage
        spent[0] = work


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

    Each second-to-last value ``a`` of a range of :func:`_second_ranges` is
    placed in a loop and marked once; a's last range is range(1, a) after a
    drop and range(a, len(caps) + 1) after an ascent, so after the walk one
    running sum of the marks counts, for each v, the ranges that hold v.
    The values at their caps once ``a`` is placed hold no last place: each
    is taken off its own entry as it is met.
    """
    cap = (0, *caps)
    top = len(cap)
    if descents.largest == 1:
        free = _one_value(caps, budget)
        return [free >> v & 1 for v in range(top)]
    fall = descents.largest - 1 in descents
    marks = [0] * (top + 1)
    tally = [0] * top
    for first, end, full, _, x, usage in _second_ranges(descents, caps, budget):
        for a in range(first, end):
            bit = 1 << a
            if full & bit:
                continue
            marks[a] += 1
            after = full | bit if usage[a] + (a == x) + 1 == cap[a] else full
            rest = after & (bit - 2 if fall else -bit)
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
    when it holds 1, and the onto-upper side otherwise.  A third-to-last
    value after which more than two values of 2..h are missing completes
    no witness; it is charged, as every one is, and skipped.  Each value
    is capped at ``largest`` uses, which no value reaches before the last
    position, so every second-to-last and last range is taken whole.
    """
    length = descents.largest
    caps = (length,) * _free_values(length)
    if length == 1:
        _one_value(caps, budget)
        return ((0, 0), (1, 0))  # of the words (1) and (2), only (2) ends above 1
    top = length + 2
    fall = length - 1 in descents
    sides = ([0] * top, [0] * top)  # onto-upper, onto-full, by index
    for first, end, _, held, _, _ in _second_ranges(descents, caps, budget):
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
    value if it lies there.  Counted before ``a`` is placed, a free value's
    rank is the number of free values below it, and the free values of one
    second-to-last range have consecutive ranks, so each range is counted
    at once as sums of ranks.  Each third-to-last value ``x`` of a
    handover is placed in one loop that scans the free values from the far
    end of x's second-to-last range: up from 1 when it is range(1, x),
    after a drop, and down from n when it is range(x, n + 1), after an
    ascent.  So the free values of that range, those of them at m - 1 and
    their charges each step by one value per value passed, and x is charged
    1 plus the charge of its range before it is counted.  A prefix of two
    values has one second-to-last range, range(1, n + 1), and no walk.  The
    walk and this loop charge the budget for the values placed or offered,
    before they are, and they would place or offer every value, so more
    than ``max_work`` values are refused before any cap is built.
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
    total = 0
    for lo, hi, capped, usage, spent in _pattern_walk(descents, (m,) * n, budget):
        work = spent[0]
        p = (((1 << top) - 2) & ~capped).bit_count()  # the free values
        r = h = s = 0  # free values passed, those at m - 1, and their charges
        if drop:  # a in range(1, x): scan up from 1
            for x in range(1, hi):
                u = usage[x]
                if u == m:
                    continue
                k = u == m - 1  # x fills its cap
                if x >= lo:
                    work += 1 + s
                    if work > limit:
                        raise budget.refusal(_WALK_WORK)
                    # the r free values of range(1, x) have ranks 0..r-1,
                    # and the least free value is among them when r > 0
                    if fall:  # each a's rank, less 1 unless a is least
                        total += r * (r - 1) // 2 - r + (r > 0)
                    else:  # the free values from a up, less a if it fills, less least
                        total += r * (p - k) - r * (r - 1) // 2 - h - (r > 0)
                r += 1
                h += k
                s += x if fall else top + 1 - x
        else:  # a in range(x, top): scan down from n
            for x in range(n, lo - 1, -1):
                u = usage[x]
                if u == m:
                    continue
                k = u == m - 1
                w = x if fall else top + 1 - x
                if x < hi:
                    work += 1 + s + (not k) * w
                    if work > limit:
                        raise budget.refusal(_WALK_WORK)
                    c = r + 1 - k  # the free values of range(x, top) once x is placed
                    below = p - r - 1  # the free values below x
                    ranks = c * below + c * (c - 1) // 2
                    least = not below and c > 0
                    if fall:
                        total += ranks - c + least
                    else:  # x itself is at m - 1 once placed when u == m - 2
                        total += c * (p - k) - ranks - h - (u == m - 2) - least
                r += 1
                h += k
                s += w
        spent[0] = work
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
