"""Brute-force counters that serve as ground truth for the formula routes.

Everything here counts by honest enumeration, so the functions stay slow and
obviously correct.  :func:`descent_histogram` tallies every word of one
(n, m) by exactly one increment: a word is a walked prefix joined to one
arrangement of the values left over, and those arrangements are listed
once per left-over multiset, with their descent masks, so a word costs
one counter increment, not one permutation step.  :func:`count_naive`
reads one set off it.  Every other counter counts over one walker,
``_pattern_walk``, which lists words with a prescribed drop pattern and
per-value caps on an explicit stack, without memoization, and stops two
positions short.  It hands over the range of the second-to-last position
with a bit mask of the values at their caps.  ``count_prefix`` counts each
handover at once, as sums of ranks from bit counts of that mask; every
other counter places the second-to-last value in the loop of one call of
``_count_words``, which counts each last range with a bit count and also
selects by the last value and by the values a word must hold.  The walk
alone charges the budget, in one unit: 1 per value placed before the last
position, and the size of each last range, each second-to-last range
charged before its caller works through it.  The formula modules must
match these on overlapping domains; tests and the verify suite enforce
that.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    64), the Jacobi-Trudi chain its placements, and coefficient extraction,
    against the default budget, its closed-form products and difference-table
    subtractions.  Passing it raises ``BudgetExceededError`` naming
    ``max_work``."""

    max_work: int = 10_000_000

    def __post_init__(self) -> None:
        require_positive(max_work=self.max_work)

    def refusal(self, work: str) -> BudgetExceededError:
        """The error a route raises once its ``work`` passes the cap."""
        return BudgetExceededError(f"{work}, more than max_work = {self.max_work}")


DEFAULT_BUDGET = EnumerationBudget()
_WALK_WORK = "values placed by a word walk"  # what a walk's refusal names
# The last positions of a word, listed once per left-over multiset: of 4..8,
# 6 ran fastest at (n, m) = (4, 3) and (6, 2).
TAIL = 6


def _arrangements(word: list[int], cut: int) -> Iterator[int]:
    """Step ``word``, sorted on entry, through every distinct arrangement of
    its first ``cut`` values with the rest sorted after them, in
    lexicographic order, and yield once per arrangement the descent mask of
    those first values (bit p: a strict drop after position p + 1).

    The list is stepped in place: read it at each yield, never change it.
    Before each step the rest is reversed, its last arrangement, so the
    next-permutation step must move the first ``cut`` values; a ``cut`` of
    ``len(word)`` lists every arrangement.  A step at pivot i leaves the
    positions before i alone and leaves those after i ascending, so only
    the comparisons at i - 1 and i are made again: O(1) work per mask.
    """
    top = len(word) - 1
    mask = 0  # the sorted word has no descent
    while True:
        yield mask
        word[cut:] = word[cut:][::-1]
        i = min(cut, top) - 1
        while i >= 0 and word[i] >= word[i + 1]:
            i -= 1
        if i < 0:
            return
        j = top
        while word[j] <= word[i]:
            j -= 1
        word[i], word[j] = word[j], word[i]
        word[i + 1 :] = word[:i:-1]
        mask &= ((1 << i) - 1) >> 1  # keep the bits below i - 1
        if i and word[i - 1] > word[i]:
            mask |= 1 << (i - 1)
        if i + 1 < cut and word[i] > word[i + 1]:
            mask |= 1 << i


def descent_histogram(
    n: int, m: int, budget: EnumerationBudget | None = None
) -> dict[DescentSet, int]:
    """Tally the descent sets of all words holding each of 1..n exactly m times.

    Every word is a prefix of its first ``cells - TAIL`` values (none when
    ``cells <= TAIL``) joined to one arrangement of the values left over.
    The distinct prefixes are walked once each, and the arrangements of
    each distinct left-over multiset are listed once per call, as their
    first value and internal descent mask, grouped by first value; both
    come from one next-permutation walk that updates the mask in O(1) per
    step.  Each word is then tallied by exactly one increment, of its
    junction and tail masks' counter in the row of its prefix's mask (the
    junction bit is set when the prefix's last value exceeds the tail's
    first).  Sets no word realizes are absent; the masks become
    ``DescentSet`` keys once, at the end.  Nothing is kept across calls.
    Refuses to start when the (n*m)! / (m!)**n arrangements, or the n*m
    cells of one word, exceed the budget's ``max_work``.
    """
    require_positive(n=n, m=m)
    budget = budget or DEFAULT_BUDGET
    cells = n * m
    arrangements = 1  # one copy of one value at a time: it never shrinks
    for size in range(1, cells + 1):
        arrangements = arrangements * size // ((size - 1) // n + 1)
        if max(cells, arrangements) > budget.max_work:
            raise budget.refusal(f"full enumeration at n = {n}, m = {m}")
    cut = max(cells - TAIL, 0)  # the prefix length
    word = [v for v in range(1, n + 1) for _ in range(m)]
    # left-over multiset -> (first value, masks with junction 0, with 1);
    # a mask's bit 0 is the junction and bit k + 1 the tail's drop after k + 1
    tails: dict[tuple[int, ...], list[tuple[int, list[int], list[int]]]] = {}
    rows: dict[int, list[int]] = {}  # prefix mask -> one counter per tail mask
    for prefix in _arrangements(word, cut):
        left = tuple(word[cut:])
        groups = tails.get(left)
        if groups is None:
            tail = list(left)
            firsts: dict[int, list[int]] = {}
            for mask in _arrangements(tail, len(tail)):
                firsts.setdefault(tail[0], []).append(mask << 1)
            groups = tails[left] = [
                (first, masks, [mask | 1 for mask in masks])
                for first, masks in firsts.items()
            ]
        row = rows.get(prefix)
        if row is None:
            row = rows[prefix] = [0] * (1 << len(left))
        last = word[cut - 1] if cut else 0  # no prefix: no junction descent
        for first, ascents, drops in groups:
            for mask in drops if last > first else ascents:
                row[mask] += 1
    histogram: dict[DescentSet, int] = {}
    for prefix, row in rows.items():
        for mask, count in enumerate(row):
            if count:  # the junction is bit cut - 1, and 0 when cut is 0
                full = prefix | (mask << cut) >> 1
                elements = tuple(p + 1 for p in range(cells - 1) if full >> p & 1)
                histogram[DescentSet(elements)] = count
    return histogram


def count_naive(
    descents: DescentSet, n: int, m: int, budget: EnumerationBudget | None = None
) -> int:
    """Count words holding each of 1..n exactly m times with this descent set.

    Its entry of :func:`descent_histogram`, with the same refusals: every
    word is tallied, whichever set is asked for, so one call costs as much
    as the whole histogram; read several sets off one histogram instead.
    """
    return descent_histogram(n, m, budget).get(descents, 0)


def _pattern_walk(
    descents: DescentSet,
    caps: Sequence[int],
    budget: EnumerationBudget = DEFAULT_BUDGET,
) -> Iterator[tuple[int, int, int, list[int]]]:
    """Walk the words of length ``largest`` >= 2 over 1..len(caps) that use
    each value v at most ``caps[v-1]`` times and drop strictly exactly at
    the descent set without its largest element, two positions short.
    Yield ``(lo, hi, capped, usage)`` once per word without its last two
    values.

    The second-to-last value is any v in range(lo, hi) below its cap, and
    the caller places it and each last value.  ``usage[v]`` is how often v
    occurs in the first ``largest - 2`` positions (``usage[0]`` stays 0),
    and bit v of ``capped`` is set when v is at its cap, so ``least``, the
    smallest value below its cap, is its lowest clear bit above bit 0.  The
    list is live and the walk's own: read it, never change it.  The
    walk is a depth-first search on an explicit stack, the value and the
    range of values still open at each position, so memory is
    O(largest + len(caps)) and no length meets a recursion limit.  Nothing
    is memoized or merged: every word without its last two values is
    reached on its own.  The walk charges 1 per value placed and, before
    it yields a range, 1 per value the caller may place there plus the
    size of that value's last range; more than the budget's ``max_work``
    raises, before the caller does the work.  A word reaching the handover
    costs at least ``largest - 1``, so a walk where that passes ``max_work``
    is refused before it allocates, even when no word fits.
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
    stop = length - 1  # the second-to-last position, left to the caller
    fall = falls[stop]  # last ranges are range(1, a) after a drop, else range(a, top)
    word = [0] * stop  # word[p]: the value at position p, 0 before the first
    lo = [1] * length  # position p takes values in range(lo[p], hi[p])
    hi = [top] * length
    limit = budget.max_work
    placed = 0
    pos = 1
    while pos:
        if pos == stop:
            # charge each value a of the range below its cap and its last
            # range, a after a drop and 1 + top - a after an ascent: the
            # charges of the whole range less those of the capped values
            first, end = lo[pos], hi[pos]
            if fall:
                work = (first + end - 1) * (end - first) // 2
            else:
                work = (2 * top + 3 - first - end) * (end - first) // 2
            rest = capped & ((1 << end) - (1 << first))
            while rest:
                low = rest & -rest
                a = low.bit_length() - 1
                work -= a if fall else 1 + top - a
                rest ^= low
            if work:  # every charge is positive: some value is free
                placed += work
                if placed > limit:
                    raise budget.refusal(_WALK_WORK)
                yield first, end, capped, usage
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


def _count_words(
    descents: DescentSet,
    caps: Sequence[int],
    last_ok: int = -1,
    need: int = 0,
    budget: EnumerationBudget = DEFAULT_BUDGET,
) -> int:
    """Count the words of :func:`_pattern_walk` whose last value has its bit
    set in ``last_ok`` and that hold every value whose bit is set in ``need``.

    Each second-to-last value ``a`` is placed in a loop, and its last range
    is counted at once, a bit count of its values below their caps and in
    ``last_ok``: all of them when the word already holds every value of
    ``need``, only the missing one when exactly one is missing, none
    otherwise.  So a ``need`` of more values than ``largest`` counts
    nothing, but the walk still runs, and may refuse.  A word of one value
    is only a last range, range(1, len(caps) + 1), charged here in full.
    """
    cap = (0, *caps)
    top = len(cap)
    length = descents.largest
    if length == 1:
        if top - 1 > budget.max_work:
            raise budget.refusal(_WALK_WORK)
        free = ((1 << top) - 2) & ~sum(1 << v for v in range(1, top) if not cap[v])
        return 0 if need & (need - 1) else (free & last_ok & (need or -1)).bit_count()
    fall = length - 1 in descents  # the word drops before its last value
    total = 0
    for lo, hi, capped, usage in _pattern_walk(descents, caps, budget):
        missing = need and need & ~sum(1 << v for v in range(1, top) if usage[v])
        for a in range(lo, hi):
            bit = 1 << a
            left = missing & ~bit
            if capped & bit or left & (left - 1):
                continue  # a is at its cap, or two values are still missing
            full = capped | bit if usage[a] + 1 == cap[a] else capped
            last = bit - 2 if fall else (1 << top) - bit
            total += (last & ~full & last_ok & (left or -1)).bit_count()
    return total


def count_prefix(
    descents: DescentSet, n: int, m: int, budget: EnumerationBudget | None = None
) -> int:
    """Count the same words as :func:`count_naive`, but faster.

    A word is determined by its first ``largest`` values, the rest of the
    multiset sorted after them (the whole word for the empty set: count 1),
    so the final descent holds exactly when the last value exceeds the
    smallest value still below its cap after it.  Only the prefixes are
    walked, pruned by the forced comparisons, and the walk stops two
    positions short; a prefix of one value is its last range, and all its
    values count but 1.

    The rule: each second-to-last value ``a`` counts the free values (those
    below their caps once ``a`` is placed) of its last range, range(1, a)
    after a drop or range(a, n + 1) after an ascent, less the least free
    value if it lies there.  Counted before ``a`` is placed, a free value's
    rank is the number of free values below it, and the free values of one
    handed-over range have consecutive ranks, so each handover is counted
    at once as sums of ranks from bit counts of the walk's cap mask.  The
    walk charges the budget for the values placed or offered, before they
    are, and it would place or offer every value, so more than
    ``max_work`` values are refused before any cap is built.
    """
    require_positive(n=n, m=m)
    if not descents:
        return 1  # no prefix: the whole word is its sorted tail
    length = descents.largest
    if length >= n * m:
        return 0  # no successor position left for the final descent
    budget = budget or DEFAULT_BUDGET
    if n > budget.max_work:
        raise budget.refusal(_WALK_WORK)
    if length == 1:
        return n - 1  # every last value but 1
    caps = (m,) * n
    alphabet = (1 << n + 1) - 2  # bits 1..n
    fall = length - 1 in descents
    total = 0
    for lo, hi, capped, usage in _pattern_walk(descents, caps, budget):
        free = alphabet & ~capped
        span = free & ((1 << hi) - (1 << lo))
        c = span.bit_count()
        ranks = c * (free & ((1 << lo) - 1)).bit_count() + c * (c - 1) // 2
        least = bool(free & -free & span)  # the least free value is some a
        if fall:  # a's rank, less 1 unless a is least
            total += ranks - c + least
        else:  # the free values from a up, less a if it fills, less least
            total += c * free.bit_count() - ranks - usage[lo:hi].count(m - 1) - least
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
    return _count_words(descents, parts)


def _free_caps(descents: DescentSet, i: int, skip_one: bool = False) -> tuple[int, ...]:
    """The witness counters' caps for index ``i``: words of length
    ``largest`` over 1..i+1, each value free to repeat, value 1 left out
    when ``skip_one``.

    The walk charges every free value at least once (placed at position 1,
    offered in the first range, or counted in the one last range), so more
    free values than ``max_work`` are refused before any cap is built.
    """
    strict_ints((i,), "coefficient index", 0)
    free = descents.largest
    if (i if skip_one else i + 1) > DEFAULT_BUDGET.max_work:
        raise DEFAULT_BUDGET.refusal(_WALK_WORK)
    return (0 if skip_one else free,) + (free,) * i


def count_last_fixed(descents: DescentSet, n: int, j: int) -> int:
    """Count length-``largest`` words over 1..n, drops exactly at the descent
    set without its largest element, whose last value is ``j``.

    No multiplicity cap applies here; every value may repeat freely.
    """
    require_positive(n=n, j=j)
    if j > n:
        raise DomainError(f"last value {j} outside 1..{n}")
    return _count_words(descents, _free_caps(descents, n - 1), 1 << j)


def count_coeff_witnesses(descents: DescentSet, i: int) -> int:
    """Count the words witnessing coefficient ``i`` in the offset -1 base.

    These are length-``largest`` words with drops exactly at the descent set
    without its largest element, values within 1..i+1, every value of
    2..i+1 present (1 itself is optional), and last value different from 1.
    A word holds at most ``largest`` distinct values, so for larger ``i`` the
    walk still runs, and may refuse, but no word is counted.
    """
    caps = _free_caps(descents, i)
    return _count_words(descents, caps, -3, (1 << i + 2) - 4)


def count_onto_upper(descents: DescentSet, i: int) -> int:
    """Witness words whose value set is exactly {2, ..., i+1}.

    For i = 0 the value set is empty and no word of positive length exists,
    so the count is 0 by convention.  As in :func:`count_coeff_witnesses`,
    no word is counted for ``i`` above ``largest``.
    """
    caps = _free_caps(descents, i, True)
    return _count_words(descents, caps, need=(1 << i + 2) - 4)


def count_onto_full(descents: DescentSet, i: int) -> int:
    """Witness words using all of {1, ..., i+1} with last value not 1; no
    word is counted for ``i + 1`` above ``largest``."""
    caps = _free_caps(descents, i)
    return _count_words(descents, caps, -3, (1 << i + 2) - 2)
