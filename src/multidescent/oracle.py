"""Brute-force counters that serve as ground truth for the formula routes.

Everything here counts by honest enumeration, so the functions stay slow and
obviously correct.  :func:`descent_histogram` visits every word of one
(n, m) once and tallies its descent set; :func:`count_naive` reads one set
off it.  Every other counter is a short filter over one walker,
``_pattern_walk``, which lists words with a prescribed drop pattern and
per-value caps on an explicit stack, without memoization, and stops one
position short: ``count_prefix`` counts each last position's range at once,
and ``_pattern_words`` lists its words one by one for the rest.  The
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
    DPs, the Jacobi-Trudi chain its placements.  Passing it raises
    ``BudgetExceededError`` naming ``max_work``."""

    max_work: int = 10_000_000

    def __post_init__(self) -> None:
        require_positive(max_work=self.max_work)

    def refusal(self, work: str) -> BudgetExceededError:
        """The error a route raises once its ``work`` passes the cap."""
        return BudgetExceededError(f"{work}, more than max_work = {self.max_work}")


DEFAULT_BUDGET = EnumerationBudget()


def descent_histogram(
    n: int, m: int, budget: EnumerationBudget | None = None
) -> dict[DescentSet, int]:
    """Tally the descent sets of all words holding each of 1..n exactly m times.

    Visits every distinct arrangement once, via lexicographic
    next-permutation from the sorted word, and keeps the word's descents as
    a bit mask (bit p: a strict drop after position p + 1).  A step at pivot
    i leaves the positions before i alone and leaves the tail after i
    ascending, so only the comparisons at i - 1 and i are made again: O(1)
    work per word.  Sets no word realizes are absent; the masks become
    ``DescentSet`` keys once, at the end.  Refuses to start when the
    (n*m)! / (m!)**n arrangements, or the n*m cells of one word, exceed the
    budget's ``max_work``.
    """
    require_positive(n=n, m=m)
    budget = budget or DEFAULT_BUDGET
    cells = n * m
    arrangements = 1  # one copy of one value at a time: it never shrinks
    for size in range(1, cells + 1):
        arrangements = arrangements * size // ((size - 1) // n + 1)
        if max(cells, arrangements) > budget.max_work:
            raise budget.refusal(f"full enumeration at n = {n}, m = {m}")
    word = [v for v in range(1, n + 1) for _ in range(m)]
    top = cells - 1
    tally: dict[int, int] = {}
    mask = 0  # the sorted word has no descent
    while True:
        tally[mask] = tally.get(mask, 0) + 1
        i = top - 1
        while i >= 0 and word[i] >= word[i + 1]:
            i -= 1
        if i < 0:
            break
        j = top
        while word[j] <= word[i]:
            j -= 1
        word[i], word[j] = word[j], word[i]
        word[i + 1 :] = word[:i:-1]
        mask &= ((1 << i) - 1) >> 1  # keep the bits below i - 1
        if i and word[i - 1] > word[i]:
            mask |= 1 << (i - 1)
        if word[i] > word[i + 1]:
            mask |= 1 << i
    return {
        DescentSet(tuple(p + 1 for p in range(top) if mask >> p & 1)): count
        for mask, count in tally.items()
    }


def count_naive(
    descents: DescentSet, n: int, m: int, budget: EnumerationBudget | None = None
) -> int:
    """Count words holding each of 1..n exactly m times with this descent set.

    Its entry of :func:`descent_histogram`, with the same refusals: every
    word is enumerated, whichever set is asked for.
    """
    return descent_histogram(n, m, budget).get(descents, 0)


def _pattern_walk(
    descents: DescentSet,
    caps: Sequence[int],
    budget: EnumerationBudget = DEFAULT_BUDGET,
) -> Iterator[tuple[int, int, int, list[int]]]:
    """Walk the words of length ``largest`` over 1..len(caps) that use each
    value v at most ``caps[v-1]`` times and drop strictly exactly at the
    descent set without its largest element.  Yield ``(lo, hi, least,
    usage)`` once per word without its last value.

    The last value is any v in range(lo, hi) below its cap.  ``least`` is
    the smallest value the first ``largest - 1`` positions leave below its
    cap (len(caps) + 1 if none); it is kept per position and moves only
    when the value it names reaches its cap, and then only forward, past
    values at their caps.  ``usage[v]`` is how often v occurs in those
    positions (``usage[0]`` stays 0).  The list is live: read it before
    asking for the next yield.  The walk is a depth-first search on an
    explicit stack, the value and the range of values still open at each
    position, so memory is O(largest + len(caps)) and no length meets a
    recursion limit.  Nothing is memoized or merged: every word without its
    last value is reached on its own.  The walk charges each value it
    places and each value of a last position's range; more than the
    budget's ``max_work`` raises.
    """
    length = descents.largest
    falls = [False] * length  # falls[p]: the word drops after position p
    for p in descents.elements[:-1]:
        falls[p] = True
    cap = (0, *caps)
    top = len(cap)
    usage = [0] * top
    word = [0] * length  # word[p]: the value at position p, 0 before the first
    lo = [1] * (length + 1)  # position p takes values in range(lo[p], hi[p])
    hi = [top] * (length + 1)
    least = [top] * (length + 1)  # least[p]: ``least`` of the first p - 1 values
    least[1] = next((v for v in range(1, top) if cap[v]), top)
    limit = budget.max_work
    placed = 0
    pos = 1
    while pos:
        if pos == length:  # the last position's range ends the words
            if lo[pos] < hi[pos]:
                placed += hi[pos] - lo[pos]
                if placed > limit:
                    raise budget.refusal("values placed by a word walk")
                yield lo[pos], hi[pos], least[pos], usage
            pos -= 1
            continue
        value = word[pos]
        if value:  # take the last value back and try the ones after it
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
            raise budget.refusal("values placed by a word walk")
        usage[value] += 1
        word[pos] = value
        below = least[pos]
        if value == below:  # it may have reached its cap
            while below < top and usage[below] >= cap[below]:
                below += 1
        least[pos + 1] = below
        if falls[pos]:
            lo[pos + 1], hi[pos + 1] = 1, value
        else:
            lo[pos + 1], hi[pos + 1] = value, top
        pos += 1


def _pattern_words(
    descents: DescentSet, caps: Sequence[int]
) -> Iterator[tuple[int, list[int]]]:
    """Yield ``(last value, usage)`` for every word of :func:`_pattern_walk`
    under the default budget, ``usage`` now counting the last value too."""
    cap = (0, *caps)
    for lo, hi, _, usage in _pattern_walk(descents, caps):
        for last in range(lo, hi):
            if usage[last] < cap[last]:
                usage[last] += 1
                yield last, usage
                usage[last] -= 1


def count_prefix(
    descents: DescentSet, n: int, m: int, budget: EnumerationBudget | None = None
) -> int:
    """Count the same words as :func:`count_naive`, but faster.

    A word is determined by its first ``largest`` values, the rest of the
    multiset sorted after them (the whole word for the empty set: count 1),
    so the final descent holds exactly when the last prefix value exceeds
    the smallest value not yet used up.  The last value can use up only
    itself, so that smallest value may be read before it, as the walk's
    ``least``: of the last values below their caps, all count but
    ``least``.  Only the prefixes are walked, pruned by the forced
    comparisons, and each last position's range is counted at once; the
    budget caps the values placed or offered.
    """
    require_positive(n=n, m=m)
    if not descents:
        return 1  # no prefix: the whole word is its sorted tail
    if descents.largest >= n * m:
        return 0  # no successor position left for the final descent
    walk = _pattern_walk(descents, (m,) * n, budget or DEFAULT_BUDGET)
    return sum(
        hi - lo - usage[lo:hi].count(m) - (lo <= least < hi)
        for lo, hi, least, usage in walk
    )


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
    return sum(1 for _ in _pattern_words(descents, parts))


def _free_words(
    descents: DescentSet, i: int, skip_one: bool = False
) -> Iterator[tuple[int, list[int]]]:
    """The witness counters' words for index ``i``: length ``largest`` over
    1..i+1, each value free to repeat, value 1 left out when ``skip_one``."""
    strict_ints((i,), "coefficient index", 0)
    free = descents.largest
    return _pattern_words(descents, (0 if skip_one else free,) + (free,) * i)


def count_last_fixed(descents: DescentSet, n: int, j: int) -> int:
    """Count length-``largest`` words over 1..n, drops exactly at the descent
    set without its largest element, whose last value is ``j``.

    No multiplicity cap applies here; every value may repeat freely.
    """
    require_positive(n=n, j=j)
    if j > n:
        raise DomainError(f"last value {j} outside 1..{n}")
    return sum(1 for last, _ in _free_words(descents, n - 1) if last == j)


def count_coeff_witnesses(descents: DescentSet, i: int) -> int:
    """Count the words witnessing coefficient ``i`` in the offset -1 base.

    These are length-``largest`` words with drops exactly at the descent set
    without its largest element, values within 1..i+1, every value of
    2..i+1 present (1 itself is optional), and last value different from 1.
    """
    return sum(
        1
        for last, usage in _free_words(descents, i)
        if last != 1 and all(usage[2:])
    )


def count_onto_upper(descents: DescentSet, i: int) -> int:
    """Witness words whose value set is exactly {2, ..., i+1}.

    For i = 0 the value set is empty and no word of positive length exists,
    so the count is 0 by convention.
    """
    return sum(1 for _, usage in _free_words(descents, i, True) if all(usage[2:]))


def count_onto_full(descents: DescentSet, i: int) -> int:
    """Witness words using all of {1, ..., i+1} with last value not 1."""
    return sum(
        1
        for last, usage in _free_words(descents, i)
        if last != 1 and all(usage[1:])
    )
