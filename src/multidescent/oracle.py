"""Brute-force counters that serve as ground truth for the formula routes.

Everything here counts by honest enumeration, so the functions stay slow and
obviously correct.  The formula modules must match these on overlapping
domains; tests and the verify suite enforce that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .core import BudgetExceededError, DescentSet, DomainError, require_positive


@dataclass(frozen=True)
class EnumerationBudget:
    """Caps that keep brute-force enumeration at desk scale.

    ``max_total_cells`` bounds n*m for full multiset enumeration;
    ``max_prefix_states`` bounds search nodes in prefix counting.
    """

    max_total_cells: int = 12
    max_prefix_states: int = 10_000_000

    def __post_init__(self) -> None:
        if self.max_total_cells < 1 or self.max_prefix_states < 1:
            raise DomainError("budget caps must be positive")


DEFAULT_BUDGET = EnumerationBudget()


def count_naive(
    descents: DescentSet, n: int, m: int, budget: EnumerationBudget | None = None
) -> int:
    """Count words holding each of 1..n exactly m times with this descent set.

    Visits every distinct arrangement once, via lexicographic
    next-permutation from the sorted word, and checks the descent pattern
    directly.  Refuses to start when n*m exceeds the budget.
    """
    require_positive(n=n, m=m)
    budget = budget or DEFAULT_BUDGET
    cells = n * m
    if cells > budget.max_total_cells:
        raise BudgetExceededError(
            f"full enumeration needs n*m = {cells} cells; "
            f"budget allows max_total_cells = {budget.max_total_cells}"
        )
    # Descents live between adjacent positions, so anything at or past the
    # final position can never be realized.
    if descents and descents.largest >= cells:
        return 0
    want = [i in descents for i in range(1, cells)]
    word = [v for v in range(1, n + 1) for _ in range(m)]
    top = cells - 1
    count = 0
    while True:
        ok = True
        for i in range(top):
            if (word[i] > word[i + 1]) != want[i]:
                ok = False
                break
        if ok:
            count += 1
        i = top - 1
        while i >= 0 and word[i] >= word[i + 1]:
            i -= 1
        if i < 0:
            return count
        j = top
        while word[j] <= word[i]:
            j -= 1
        word[i], word[j] = word[j], word[i]
        word[i + 1 :] = word[:i:-1]


def count_prefix(
    descents: DescentSet, n: int, m: int, budget: EnumerationBudget | None = None
) -> int:
    """Count the same words as :func:`count_naive`, but faster.

    A word is determined by its first ``largest`` values: the tail is the
    unused portion of the multiset in ascending order, so the required final
    descent holds exactly when the last prefix value exceeds the smallest
    value not yet used up.  The search walks prefixes position by position,
    pruning by the forced comparisons.  No memoization yet; this recursion is
    the natural place to add it if larger inputs ever matter.
    """
    if not descents:
        raise DomainError("prefix counting needs a non-empty descent set")
    require_positive(n=n, m=m)
    length = descents.largest
    if length >= n * m:
        return 0  # no successor position left for the final descent
    limit = (budget or DEFAULT_BUDGET).max_prefix_states
    drops = frozenset(descents.without_largest.elements)
    usage = [0] * (n + 1)
    visited = 0

    def walk(pos: int, prev: int) -> int:
        nonlocal visited
        visited += 1
        if visited > limit:
            raise BudgetExceededError(
                f"prefix search exceeded max_prefix_states = {limit}"
            )
        if pos > length:
            lowest = 1
            while usage[lowest] >= m:
                lowest += 1
            return 1 if prev > lowest else 0
        if pos == 1:
            span = range(1, n + 1)
        elif (pos - 1) in drops:
            span = range(1, prev)
        else:
            span = range(prev, n + 1)
        found = 0
        for value in span:
            if usage[value] < m:
                usage[value] += 1
                found += walk(pos + 1, value)
                usage[value] -= 1
        return found

    return walk(1, 0)


def count_content(parts: Sequence[int], descents: DescentSet) -> int:
    """Count length-``largest`` words with prescribed value multiplicities.

    Value j (1-based) must appear exactly ``parts[j-1]`` times, and the strict
    drops must sit exactly at the descent set without its largest element.
    Only the relative order of values matters, so this count is the same for
    any alphabet of ``len(parts)`` values.
    """
    if not descents:
        raise DomainError("content counting needs a non-empty descent set")
    parts = tuple(int(p) for p in parts)
    if any(p < 1 for p in parts):
        raise DomainError("content parts must be positive")
    length = descents.largest
    if sum(parts) != length:
        raise DomainError(f"content sums to {sum(parts)}, expected {length}")
    drops = frozenset(descents.without_largest.elements)
    r = len(parts)
    remaining = list(parts)

    def walk(pos: int, prev: int) -> int:
        if pos > length:
            return 1
        if pos == 1:
            span = range(1, r + 1)
        elif (pos - 1) in drops:
            span = range(1, prev)
        else:
            span = range(prev, r + 1)
        total = 0
        for value in span:
            if remaining[value - 1]:
                remaining[value - 1] -= 1
                total += walk(pos + 1, value)
                remaining[value - 1] += 1
        return total

    return walk(1, 0)


def _descent_words(
    length: int, lo: int, hi: int, drops: frozenset[int]
) -> Iterator[tuple[int, ...]]:
    """Yield words of ``length`` over [lo, hi] with strict drops exactly at
    the 1-indexed positions in ``drops``."""
    if lo > hi:
        return
    word = [0] * length

    def rec(pos: int, prev: int) -> Iterator[tuple[int, ...]]:
        if pos > length:
            yield tuple(word)
            return
        if pos == 1:
            span = range(lo, hi + 1)
        elif (pos - 1) in drops:
            span = range(lo, prev)
        else:
            span = range(prev, hi + 1)
        for value in span:
            word[pos - 1] = value
            yield from rec(pos + 1, value)

    yield from rec(1, 0)


def count_last_fixed(descents: DescentSet, n: int, j: int) -> int:
    """Count length-``largest`` words over 1..n, drops exactly at the descent
    set without its largest element, whose last value is ``j``.

    No multiplicity cap applies here; every value may repeat freely.
    """
    if not descents:
        raise DomainError("last-fixed counting needs a non-empty descent set")
    require_positive(n=n)
    if not 1 <= j <= n:
        raise DomainError(f"last value {j} outside 1..{n}")
    drops = frozenset(descents.without_largest.elements)
    return sum(
        1 for w in _descent_words(descents.largest, 1, n, drops) if w[-1] == j
    )


def count_coeff_witnesses(descents: DescentSet, i: int) -> int:
    """Count the words witnessing coefficient ``i`` in the offset -1 base.

    These are length-``largest`` words with drops exactly at the descent set
    without its largest element, values within 1..i+1, every value of
    2..i+1 present (1 itself is optional), and last value different from 1.
    """
    if not descents:
        raise DomainError("witness counting needs a non-empty descent set")
    if i < 0:
        raise DomainError(f"coefficient index must be >= 0, got {i}")
    drops = frozenset(descents.without_largest.elements)
    required = frozenset(range(2, i + 2))
    total = 0
    for w in _descent_words(descents.largest, 1, i + 1, drops):
        if w[-1] != 1 and required.issubset(w):
            total += 1
    return total


def count_onto_upper(descents: DescentSet, i: int) -> int:
    """Witness words whose value set is exactly {2, ..., i+1}.

    For i = 0 the value set is empty and no word of positive length exists,
    so the count is 0 by convention.
    """
    if not descents:
        raise DomainError("witness counting needs a non-empty descent set")
    if i < 0:
        raise DomainError(f"coefficient index must be >= 0, got {i}")
    drops = frozenset(descents.without_largest.elements)
    target = frozenset(range(2, i + 2))
    return sum(
        1
        for w in _descent_words(descents.largest, 2, i + 1, drops)
        if frozenset(w) == target
    )


def count_onto_full(descents: DescentSet, i: int) -> int:
    """Witness words using all of {1, ..., i+1} with last value not 1."""
    if not descents:
        raise DomainError("witness counting needs a non-empty descent set")
    if i < 0:
        raise DomainError(f"coefficient index must be >= 0, got {i}")
    drops = frozenset(descents.without_largest.elements)
    target = frozenset(range(1, i + 2))
    return sum(
        1
        for w in _descent_words(descents.largest, 1, i + 1, drops)
        if w[-1] != 1 and frozenset(w) == target
    )
