"""Brute-force counters that serve as ground truth for the formula routes.

Everything here counts by honest enumeration, so the functions stay slow and
obviously correct.  :func:`descent_histogram` tallies every word of one
(n, m) by exactly one increment: a word is a walked prefix joined to one
arrangement of the values left over, and those arrangements are listed
once per left-over multiset, with their descent masks, so a word costs
one counter increment, not one permutation step.  :func:`count_naive`
reads one set off it.  Every other counter counts over one walker,
``_pattern_walk``, which lists words with a prescribed drop pattern and
per-value caps on an explicit stack, without memoization, and stops three
positions short.  It hands over the range of the third-to-last position
with a bit mask of the values at their caps, and its callers place that
value in a loop of their own.  ``count_prefix`` counts each second-to-last
range after it at once, as sums of ranks that step by one value as the
loop goes; every other counter places the second-to-last value in a loop
inside it, in one call of ``_count_words``, which counts each last range
with a bit count and also selects by the last value and by the values a
word must hold.  The budget is charged in one unit: 1 per value placed
before the last position, and the size of each last range, each
third-to-last value charged with its second-to-last range before its
caller counts it.  A word of two values has no third-to-last position:
its one second-to-last range is charged and counted without a walk.  The
formula modules must match these on overlapping domains; tests and the
verify suite enforce that.
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


def _count_words(
    descents: DescentSet,
    caps: Sequence[int],
    last_ok: int = -1,
    need: int = 0,
    budget: EnumerationBudget = DEFAULT_BUDGET,
) -> int:
    """Count the words of :func:`_pattern_walk` whose last value has its bit
    set in ``last_ok`` and that hold every value whose bit is set in ``need``.

    Each third-to-last value ``x`` is placed in a loop, charged 1 plus the
    charge of its second-to-last range before it is counted, and each
    second-to-last value ``a`` of that range in a loop inside it.  Then
    a's last range is counted at once, a bit count of its values below
    their caps and in ``last_ok``: all of them when the word already holds
    every value of ``need``, only the missing one when exactly one is
    missing, none otherwise.  The mask of the values held is built once per
    handover, x's bit added per x.  So a ``need`` of more values than
    ``largest`` counts nothing, but the walk still runs, and may refuse.  A
    word of two values is only a second-to-last range, range(1, len(caps)
    + 1), and a word of one value only a last range; each is charged here
    in full.
    """
    cap = (0, *caps)
    top = len(cap)
    length = descents.largest
    capped = sum(1 << v for v in range(1, top) if not cap[v])
    if length == 1:
        if top - 1 > budget.max_work:
            raise budget.refusal(_WALK_WORK)
        free = ((1 << top) - 2) & ~capped
        return 0 if need & (need - 1) else (free & last_ok & (need or -1)).bit_count()
    fall = length - 1 in descents  # the word drops before its last value

    def last_values(
        first: int, end: int, full: int, missing: int, usage: list[int], x: int
    ) -> int:
        """The words whose second-to-last value is some a in range(first,
        end), given the cap mask ``full`` and the needed values ``missing``
        before it; x, not counted in ``usage``, is placed just before a."""
        total = 0
        for a in range(first, end):
            bit = 1 << a
            left = missing & ~bit
            if full & bit or left & (left - 1):
                continue  # a is at its cap, or two values are still missing
            after = full | bit if usage[a] + (a == x) + 1 == cap[a] else full
            last = bit - 2 if fall else (1 << top) - bit
            total += (last & ~after & last_ok & (left or -1)).bit_count()
        return total

    limit = budget.max_work
    if length == 2:  # no third-to-last position: one range, at position 1
        if _range_work(1, top, capped, fall, top) > limit:
            raise budget.refusal(_WALK_WORK)
        return last_values(1, top, capped, need, [0] * top, 0)
    drop = length - 2 in descents  # the word drops before its second-to-last value
    total = 0
    for lo, hi, capped, usage, spent in _pattern_walk(descents, caps, budget):
        work = spent[0]
        missing = need and need & ~sum(1 << v for v in range(1, top) if usage[v])
        for x in range(lo, hi):
            bit = 1 << x
            if capped & bit:
                continue
            full = capped | bit if usage[x] + 1 == cap[x] else capped
            first, end = (1, x) if drop else (x, top)
            work += 1 + _range_work(first, end, full, fall, top)
            if work > limit:
                raise budget.refusal(_WALK_WORK)
            total += last_values(first, end, full, missing & ~bit, usage, x)
        spent[0] = work
    return total


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
    return _count_words(descents, parts)


def _free_caps(descents: DescentSet, i: int, skip_one: bool = False) -> tuple[int, ...]:
    """The witness counters' caps for index ``i``: words of length
    ``largest`` over 1..i+1, each value free to repeat, value 1 left out
    when ``skip_one``.

    A count charges every free value at least once (placed at position 1,
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
