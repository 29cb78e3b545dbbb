"""Brute-force counters that serve as ground truth for the formula routes.

They count words one at a time, one range at a time or one prefix state at
a time, never by a formula of the routes they check, and they are trusted
because the ``itertools.product`` and permutation references in
``tests/test_oracle.py`` agree with them.  Three left-to-right transfers
merge prefixes by state.  ``_content_words``, over (uses left, last value)
states with the drop pattern enforced at every position, counts the words
of one content for :func:`count_naive` and :func:`count_content`;
``_witness_counts``, over (number of values held, rank of the last value
among them) states, tallies the witnesses of every coefficient index for
:func:`witness_counts`, and :func:`last_value_counts`, over the last value
alone, tallies the words whose values repeat freely by last value, both
stepping by prefix and suffix sums, and :func:`onto_counts` reads the same
witness split off those tallies by inclusion-exclusion, so transfers over
different states check each other.  One walk, inside :func:`count_prefix`,
lists the prefixes of the words with a prescribed drop pattern and
per-value caps on an explicit stack, without merging them, and stops three
positions short: it hands each third-to-last range over with three bit
masks, of the values at most zero, one and two uses below their caps, each
kept in O(1) a step, and sums what the range counts in one scan, memoized
for the call.  The walk charges the budget in one unit, weighted by the
64-bit words of a mask: 1 per value it places, and 1 per free value of
each third-to-last range it hands over, before the range is counted.  The
content transfer is charged each layer's states before it builds the next,
and the witness and last-value transfers their entries before they start.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import comb
from operator import add
from typing import Sequence

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
    counting route charges in its own unit: full enumeration the states of
    its transfer's layers, each times its n offers of the 64-bit words of
    its key (1 + n * ``m.bit_length()`` // 64), the prefix walk the values
    it places and the free values of the third-to-last ranges it hands
    over, the recurrence the (state, T) transitions of all its levels' DPs,
    both weighted by the 64-bit words of their masks (1 + n // 64 and 1 +
    ``largest`` // 64), the witness transfer the C(``largest`` + 2, 3)
    entries of its layers, the Jacobi-Trudi chain its
    placements plus, for each state it stores, the 64-bit words of the
    state's packed key past the first (so the budget bounds the memory its
    keys take), and coefficient extraction, against the default budget,
    its closed-form products and difference-table subtractions, as the
    last-value transfer does its ``largest`` * n entries.  Passing it
    raises ``BudgetExceededError`` naming ``max_work``."""

    max_work: int = 10_000_000

    def __post_init__(self) -> None:
        require_positive(max_work=self.max_work)

    def refusal(self, work: str) -> BudgetExceededError:
        """The error a route raises once its ``work`` passes the cap."""
        return BudgetExceededError(f"{work}, more than max_work = {self.max_work}")


DEFAULT_BUDGET = EnumerationBudget()
_WALK_WORK = "values placed by a word walk"  # what a walk's refusal names
_CONTENT_WORK = "full enumeration of {} values in {} positions"  # a content refusal
_TABLE_CELLS = 1 << 16  # count_prefix keeps this many over n + 1 range counts at once


def _content_step(k: int, length: int, b: int, budget: EnumerationBudget) -> int:
    """The charge of one state of a content transfer of k values in
    ``length`` positions: its k offers, each of the 64-bit words of a key of
    k digits of b bits.  The per-value lists cost one state, and they, or a
    word longer than ``max_work`` positions, are refused here, before the
    content or the lists are built."""
    step = k * (1 + k * b // 64)
    if max(length, step) > budget.max_work:
        raise budget.refusal(_CONTENT_WORK.format(k, length))
    return step


def _content_words(
    parts: tuple[int, ...], drops: set[int], budget: EnumerationBudget
) -> int:
    """Count the words holding value v exactly ``parts[v-1]`` times whose
    strict drops sit exactly at ``drops``, positions before the last.

    One left-to-right transfer: a layer maps each state, the uses of each
    value still to place and the last value placed (0 before the first), to
    the number of prefixes that reach it.  At a drop only a smaller value is
    offered, elsewhere only one at least the last, so every prefix keeps the
    pattern and the last layer holds the answer.  The uses are packed into
    one ``int``, digit v - 1 of ``max(parts).bit_length()`` bits holding
    value v's, so a step tests a digit and subtracts one unit from it in
    O(1).  Only two layers are alive at once, and a layer holds no more
    states than there are distinct prefixes of its length.

    Each state is charged, before the next layer is built from it, its
    ``len(parts)`` offers of w words each, the 64-bit words of the packed
    key (1 + its bits // 64), so the charge bounds a layer's memory too.  The
    per-value lists cost one state, and they, or a word longer than
    ``max_work`` positions, are refused by :func:`_content_step` before
    they are built.
    """
    k, length = len(parts), sum(parts)
    b = max(parts).bit_length()
    step = spent = _content_step(k, length, b, budget)  # the lists: one state
    top = k + 1
    unit = [0] + [1 << b * v for v in range(k)]  # unit[v]: one use of v
    digit = [((1 << b) - 1) * u for u in unit]  # digit[v]: the bits of v's uses
    layer = {(sum(c * u for c, u in zip(parts, unit[1:])), 0): 1}
    for pos in range(length):
        spent += len(layer) * step
        if spent > budget.max_work:
            raise budget.refusal(_CONTENT_WORK.format(k, length))
        nxt: dict[tuple[int, int], int] = {}
        fall = pos in drops  # the value placed here drops from the last one
        for (left, last), words in layer.items():
            for v in range(1, last) if fall else range(last or 1, top):
                if left & digit[v]:
                    key = left - unit[v], v
                    nxt[key] = nxt.get(key, 0) + words
        layer = nxt
    return sum(layer.values())


def count_naive(
    descents: DescentSet, n: int, m: int, budget: EnumerationBudget | None = None
) -> int:
    """Count words holding each of 1..n exactly m times with this descent set.

    Full enumeration: :func:`_content_words` on the content (m,)*n, the
    drops enforced at every position, charged there.  Refuses to start when
    the n*m cells of one word exceed the budget's ``max_work``, or the
    per-value lists of the transfer do, before the content is built; the
    one word of n = 1 is answered without a layer, and a set reaching the
    last position counts 0.
    """
    require_positive(n=n, m=m)
    budget = budget or DEFAULT_BUDGET
    cells = n * m
    if cells > budget.max_work:
        raise budget.refusal(f"full enumeration at n = {n}, m = {m}")
    if n == 1:
        return int(not descents)  # the one sorted word
    if descents and descents.largest >= cells:
        return 0
    _content_step(n, cells, m.bit_length(), budget)
    return _content_words((m,) * n, set(descents.elements), budget)


def _third_range(
    first: int,
    end: int,
    masks: tuple[int, int, int],
    top: int,
    drop: bool,
    fall: bool,
) -> int:
    """What :func:`count_prefix`'s third-to-last values x of range(first,
    end) count, summed over x under the walk's ``masks``.

    x's count reads the free values on a's side of x (below x after a drop
    to a, above x otherwise): their number r and those one use below the
    cap h.  The scan starts on a's side, with r and h seeded by the values
    beyond the range there, and adds each free x it passes.  A free value's
    rank is the number of free values below it, so x's range is counted as
    sums of ranks.
    """
    capped, one, two = masks
    p = top - 1 - capped.bit_count()  # the free values
    if drop:  # a's side lies below x: scan up, past the values below first
        beyond = (1 << first) - 2
        xs = range(first, end)
    else:  # a's side lies above x: scan down, past the values from end up
        beyond = (1 << top) - (1 << end)
        xs = range(end - 1, first - 1, -1)
    beyond &= ~capped
    r, h = beyond.bit_count(), (beyond & one).bit_count()
    span = (1 << end - first) - 1  # the masks' bits of the range: a step is O(1)
    capped, one, two = capped >> first & span, one >> first & span, two >> first & span
    count = 0
    for x in xs:
        j = x - first
        if capped >> j & 1:
            continue
        k = one >> j & 1  # x fills its cap
        if drop:  # a in range(1, x): ranks 0..r-1
            if fall:  # each a's rank, less 1 unless a is least
                count += r * (r - 1) // 2 - r + (r > 0)
            else:  # the free values from a up, less a if it fills, less least
                count += r * (p - k) - r * (r - 1) // 2 - h - (r > 0)
        else:  # a in range(x, top): x and the r free values above it
            c = r + 1 - k  # the free values of range(x, top) once x is placed
            below = p - r - 1  # the free values below x
            ranks = c * below + c * (c - 1) // 2
            least = not below and c > 0
            if fall:
                count += ranks - c + least
            else:  # x is one use below its cap once placed when two below
                twice = not k and two >> j & 1
                count += c * (p - k) - ranks - h - twice - least
        r, h = r + 1, h + k
    return count


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

    The walk is a depth-first search on an explicit stack, the value and
    the range of values still open at each position, so no length meets a
    recursion limit.  Every prefix without its last three values is
    reached on its own, unmerged, and hands its third-to-last range over
    right after its last value is placed; a prefix of three values places
    nothing, and hands range(1, n + 1) over with the open masks.  Bit v of
    ``masks[d]`` is set when v has at most d uses left below its cap, so
    ``masks[0]`` holds the values at their caps, and placing a value, or
    taking it back, changes at most one bit of one mask.

    The rule: each second-to-last value ``a`` counts the free values (those
    below their caps once ``a`` is placed) of its last range, range(1, a)
    after a drop or range(a, n + 1) after an ascent, less the least free
    value if it lies there.  What a third-to-last value ``x`` counts
    depends only on x and the masks its case reads: the capped mask alone
    when x drops to ``a`` and ``a`` to the last value, all three when both
    steps rise, and the capped and one-below masks otherwise.  So
    :func:`_third_range` sums the counts of a range in one scan, memoized
    in a dict of this call keyed by the range and those masks.  The dict is
    emptied once it holds ``_TABLE_CELLS`` // (n + 1) entries, each keyed
    by masks of n + 1 bits, so memory is O(``largest`` + n) for the stack
    plus O(``_TABLE_CELLS``) words, and nothing is kept across calls.  A
    prefix of two values has one second-to-last range, range(1, n + 1),
    and is counted without a walk.

    The walk charges one running total for the work it does, each unit
    weighted by the 1 + n // 64 words of a mask: a unit for each value it
    places, and one for each free value of a third-to-last range it hands
    over, charged before the dict is read or the range scanned.  So a
    refusal depends on the input alone, not on what the dict holds, and a
    range is refused before it is scanned.  An alphabet of more than
    ``max_work`` values is refused before any cap is built, and a
    ``largest`` - 1 over it before the per-position lists are, even when
    no word fits.
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
        return (n - 1) * (n - 2) // 2 if fall else n * top // 2 - 1 - (m == 1) * n
    if length - 1 > limit:
        raise budget.refusal(_WALK_WORK)
    cost = 1 + n // 64  # a unit's charge: the 64-bit words of a mask
    drop = length - 2 in descents  # x drops to a
    # the masks at most one and two uses below their caps, where a case reads them
    one_read = 0 if drop and fall else -1
    two_read = 0 if drop or fall else -1
    handed: dict[tuple[int, int, int, int, int], int] = {}
    most = max(1, _TABLE_CELLS // top)  # the sums kept at once
    last = length - 3  # the last position the walk places
    falls = [False] * length  # falls[p]: the word drops after position p
    for p in descents.elements[:-1]:
        falls[p] = True
    left = [0] + [m] * n  # left[v]: the uses of v still open
    # before any value is placed every value has m uses left: all of 1..n in
    # the masks of d >= m, none in the others
    masks = [(1 << top) - 2 if m <= d else 0 for d in range(3)]
    word = [0] * length  # word[p]: the value at position p, 0 before the first
    lo = [1] * length  # position p takes values in range(lo[p], hi[p])
    hi = [top] * length
    placed = total = 0
    pos = 1
    while pos:
        if pos > last:  # hand the third-to-last range over
            first, end = lo[pos], hi[pos]
            capped, one, two = masks
            placed += (((1 << end) - (1 << first)) & ~capped).bit_count() * cost
            if placed > limit:
                raise budget.refusal(_WALK_WORK)
            key = first, end, capped, one & one_read, two & two_read
            count = handed.get(key)
            if count is None:
                if len(handed) >= most:
                    handed.clear()
                count = handed[key] = _third_range(first, end, key[2:], top, drop, fall)
            total += count
            pos -= 1
            continue
        value = word[pos]
        if value:  # take the last value back and try the ones after it
            d = left[value]
            left[value] = d + 1
            if d < 3:
                masks[d] ^= 1 << value
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
        placed += cost
        if placed > limit:
            raise budget.refusal(_WALK_WORK)
        d = left[value] - 1
        left[value] = d
        if d < 3:
            masks[d] |= 1 << value
        word[pos] = value
        if falls[pos]:
            lo[pos + 1], hi[pos + 1] = 1, value
        else:
            lo[pos + 1], hi[pos + 1] = value, top
        pos += 1
    return total


def count_content(parts: Sequence[int], descents: DescentSet) -> int:
    """Count length-``largest`` words with prescribed value multiplicities.

    Value j (1-based) must appear exactly ``parts[j-1]`` times, and the strict
    drops must sit exactly at the descent set without its largest element.
    Only the relative order of values matters, so this count is the same for
    any alphabet of ``len(parts)`` values.  Counted by
    :func:`_content_words`, which charges the default budget its layers.
    No counting route or report uses it: only the tests and the bench's
    ``oracle.count_content`` rows do.
    """
    parts = strict_ints(parts, "content parts", 1)
    if sum(parts) != descents.largest:
        raise DomainError(f"content sums to {sum(parts)}, expected {descents.largest}")
    return _content_words(parts, set(descents.elements[:-1]), DEFAULT_BUDGET)


def _check_index(i: int) -> None:
    """Check the coefficient index ``i`` of the witness counts, whose words
    range over the i + 1 values 1..i+1, each free to repeat.

    A last-value transfer holds an entry for each free value at every
    position, so more free values than ``max_work`` are refused before any
    per-value list is built.
    """
    strict_ints((i,), "coefficient index", 0)
    if i + 1 > DEFAULT_BUDGET.max_work:
        raise DEFAULT_BUDGET.refusal("free values of a last-value transfer")


def last_value_counts(descents: DescentSet, n: int) -> tuple[int, ...]:
    """Count length-``largest`` words over 1..n, drops exactly at the descent
    set without its largest element, by last value: entry j - 1 counts the
    words ending in j.

    No multiplicity cap applies here; every value may repeat freely.  One
    left-to-right transfer over the last value: entry v - 1 counts the
    prefixes so far that end in v, one each at the first position, and a
    step makes it the sum of the entries above v at a drop, a suffix sum,
    and of those up to v elsewhere, a prefix sum.  It charges its
    ``largest`` * n entries to the default budget before it builds any.
    """
    require_positive(n=n)
    length = descents.largest
    if length * n > DEFAULT_BUDGET.max_work:
        raise DEFAULT_BUDGET.refusal(f"last-value transfer of {length} * {n} entries")
    ends = [1] * n
    for p in range(1, length):
        if p in descents:  # entry v: the entries above v
            ends = [*accumulate(reversed(ends))][::-1][1:] + [0]
        else:  # entry v: the entries up to v
            ends = [*accumulate(ends)]
    return tuple(ends)


def count_last_fixed(descents: DescentSet, n: int, j: int) -> int:
    """The entry of :func:`last_value_counts` for last value ``j``."""
    require_positive(n=n, j=j)
    if j > n:
        raise DomainError(f"last value {j} outside 1..{n}")
    return last_value_counts(descents, n)[j - 1]


def _witness_counts(
    descents: DescentSet, budget: EnumerationBudget = DEFAULT_BUDGET
) -> tuple[tuple[int, int], ...]:
    """:func:`witness_counts` under ``budget``.

    A word over 1..largest+1 that ends above 1 is a witness at index i =
    max(word) - 1 when it holds every value of 2..max(word), and at no
    other index; it counts toward the onto-full side when it holds 1, and
    the onto-upper side otherwise.  Only the relative order of a word's
    values decides its drops, so the words holding exactly s values, any
    s of them, number those over 1..s that hold each: a witness of the
    onto-upper side at index i is one of the words over 1..i that hold
    every value, and of the onto-full side one over 1..i+1 that hold every
    value and end above 1.  One left-to-right transfer counts these: row s
    of a layer maps each rank r of 1..s to the number of prefixes holding
    s values whose last value is the r-th least of them, one prefix of one
    value at the first position.  After an ascent, repeating the value of
    rank j takes the prefixes of row s up to rank j, and a new value of
    rank q in 1..s+1 takes those of row s below rank q into row s + 1;
    after a drop, repeating rank j takes those above rank j, and a new
    value of rank q in 1..s those from rank q up.  So a step is one prefix
    or suffix sum per row, and the table is read off the last layer:
    onto-upper(i) is the sum of row i, onto-full(i) that of row i + 1
    without its rank-1 entry.  Layer k holds k(k + 1)/2 entries, and the
    transfer charges those of all its layers, C(largest + 2, 3), before it
    builds the first.
    """
    length = descents.largest
    entries = comb(length + 2, 3)
    if entries > budget.max_work:
        raise budget.refusal(f"witness transfer of {entries} entries")
    drops = set(descents.elements)
    rows = [[1]]  # rows[s - 1][r - 1]: the prefixes of s values ending at rank r
    for pos in range(1, length):
        # grow[s - 1][q - 1]: the prefixes a new value of rank q takes into
        # row s + 1; stay[s - 1][j - 1]: those a repeat of rank j keeps in row s
        if pos in drops:  # a new value takes ranks q and up, a repeat those above j
            grow = [[*accumulate(reversed(row))][::-1] + [0] for row in rows]
            stay = [row[1:] for row in grow]
        else:  # a new value takes the ranks below q, a repeat those up to j
            stay = [[*accumulate(row)] for row in rows]
            grow = [[0, *row] for row in stay]
        rows = [
            stay[0],
            *(list(map(add, a, b)) for a, b in zip(stay[1:], grow)),
            grow[-1],
        ]
    upper = [0] + [sum(row) for row in rows]  # no word holds no value
    full = [sum(row) - row[0] for row in rows] + [0]  # none holds largest + 2
    return tuple(zip(upper, full))


def witness_counts(descents: DescentSet) -> tuple[tuple[int, int], ...]:
    """``(count_onto_upper(descents, i), count_onto_full(descents, i))`` for
    every i in 0..largest, from one transfer over the words over
    1..largest+1.

    Their sum at i is ``count_coeff_witnesses(descents, i)``, and past
    ``largest`` every witness counter counts nothing.  The trio reads
    :func:`onto_counts` instead, whose rows come from the last-value
    tallies of :func:`last_value_counts`, so the two tables check each
    other: a transfer that merges the words by how many values they hold
    and the rank of their last value, and counts only the words that hold
    every value of their alphabet, against transfers that merge them by
    last value alone and take out the others by inclusion-exclusion.  The
    transfer charges its C(``largest`` + 2, 3) entries to the default
    budget before it builds any.
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
    min(i, largest), the tallies run for t = t'+1 down to 1, widest first.
    Their ``largest`` * (t'+1) * (t'+2) / 2 entries in all are charged to
    the default budget, and refused, before any transfer runs.
    """
    _check_index(i)  # refuses a bad or too wide index before any transfer
    top = min(i, descents.largest)
    entries = descents.largest * (top + 1) * (top + 2) // 2
    if entries > DEFAULT_BUDGET.max_work:
        raise DEFAULT_BUDGET.refusal(f"last-value transfers of {entries} entries")
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
    _check_index(i)
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
