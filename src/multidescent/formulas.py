"""Closed forms and the recurrence for descent counts, in exact arithmetic.

Every function here evaluates a polynomial or an alternating sum with plain
integer operations; the oracle module provides the enumerative ground truth
these must match.  The stabilized closed form is a signed sum over the
2**(|I|-1) coarsenings of the first differences, but it is evaluated by a
forward recurrence over the prefix ends of the descent set, in O(|I|**2)
binomial products; ``signed_coarsenings`` is the explicit expansion, which
the ribbon determinant still uses.
"""

from __future__ import annotations

from math import factorial, prod
from typing import Callable, Iterator, Sequence

from .core import DescentSet, DomainError, block_sums, compositions, require_positive
from .oracle import count_content


def binom_poly(n: int, r: int) -> int:
    """Binomial coefficient read as a degree-r polynomial in ``n``.

    Computes n(n-1)...(n-r+1)/r!, which is exact for every integer ``n``,
    negative included; the product of r consecutive integers is always
    divisible by r!.
    """
    if r < 0:
        raise DomainError(f"binomial order must be >= 0, got {r}")
    return prod(range(n, n - r, -1)) // factorial(r)


def stabilization_point(descents: DescentSet) -> int:
    """Smallest multiplicity beyond which the count stops growing.

    Equals largest - size + 1 and never depends on the alphabet.
    """
    return descents.largest - len(descents) + 1


def bounded_sequence_count(descents: DescentSet, n: int, m: int) -> int:
    """Count length-``largest`` words over 1..n, each value used at most m
    times, with strict drops exactly at the descent set minus its largest
    element.

    Split on content: a word using r distinct values with multiplicity
    vector A contributes count_content(A) for each of the binom(n, r) ways
    to choose which values appear.  Valid for every n, m >= 1.
    """
    require_positive(n=n, m=m)
    return sum(
        count_content(parts, descents) * binom_poly(n, len(parts))
        for parts in compositions(descents.largest, m)
    )


def descent_count(descents: DescentSet, n: int, m: int) -> int:
    """Number of words holding each of 1..n exactly m times whose descent
    set is exactly ``descents``.

    Evaluated along the chain I, I-minus-largest, ... down to the empty set:
    at each level the bounded sequence count splits into the words where the
    final compared position does or does not drop.  When the largest element
    has no successor position the count is zero, and no level is computed.
    """
    require_positive(n=n, m=m)
    if descents and descents.largest >= n * m:
        return 0
    chain = []
    cur = descents
    while cur:
        chain.append(cur)
        cur = cur.without_largest
    value = 1  # empty descent set: only the fully sorted word
    for level in reversed(chain):
        value = bounded_sequence_count(level, n, m) - value
    return value


def signed_coarsenings(weights: Sequence[int]) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Yield ``(sign, sums)`` for each way of merging runs of adjacent weights.

    ``sign`` is -1 to the number of merges, len(weights) - len(sums); there
    are 2**(len(weights)-1) coarsenings, the finest first.
    """
    k = len(weights)
    for parts in compositions(k):
        sums = block_sums(weights, parts)
        yield (-1 if (k - len(sums)) % 2 else 1), sums


def _alternating_sum(descents: DescentSet, n: int, last: Callable[[int], int]) -> int:
    """Coarsening sum: binom(n-1+q, q) per block sum q, ``last(q)`` for the last.

    A coarsening of the first differences is a chain through the prefix ends
    e_0 = 0 < e_1 < ... < e_k of the descent set from e_0 to e_k: its blocks
    are the chain's steps and its sign is -1 to the number of ends skipped.
    Grouping chains by their end before e_k gives H[0] = 1 and, for
    0 < j < k, H[j] = sum_{i<j} (-1)**(j-i-1) * binom(n-1+d, d) * H[i] with
    d = e_j - e_i; the sum is then sum_{i<k} (-1)**(k-i-1) * last(e_k - e_i)
    * H[i].  That is O(k**2) products in place of 2**(k-1) terms.  The loop
    keeps G[i] = (-1)**i * H[i], so each sign is a single negation, and
    memoizes the binomials by block sum for this call only.
    """
    top = descents.largest
    ends = (0, *descents.elements)
    blocks: dict[int, int] = {}
    signed = [1]  # G[i] for the prefix ends found so far
    for e in ends[1:-1]:
        total = 0
        for f, g in zip(ends, signed):
            q = e - f
            if q not in blocks:
                blocks[q] = binom_poly(n - 1 + q, q)
            total += blocks[q] * g
        signed.append(-total)
    total = sum(last(top - f) * g for f, g in zip(ends, signed))
    return total if len(descents) % 2 else -total


def last_fixed_formula(descents: DescentSet, n: int, j: int) -> int:
    """Alternating composition sum for the words whose last value is ``j``.

    Counts length-``largest`` words over 1..n with drops exactly at the
    descent set minus its largest element and final value j.  Agrees with
    the brute-force count once n >= largest.
    """
    require_positive(n=n)
    if not 1 <= j <= n:
        raise DomainError(f"last value {j} outside 1..{n}")
    return _alternating_sum(descents, n, lambda q: binom_poly(j - 2 + q, q - 1))


def stable_descent_count(descents: DescentSet, n: int) -> int:
    """The stabilized count, evaluated as a polynomial at any integer ``n``.

    Once the multiplicity reaches the stabilization point the word count
    stops depending on it; this closed form gives that limit value.  For
    n >= largest it equals the number of length-``largest`` words over 1..n
    with drops exactly at the descent set minus its largest element and last
    value above 1.  Negative and small n evaluate the same polynomial, which
    is what the coefficient extraction relies on.
    """
    return _alternating_sum(descents, n, lambda q: binom_poly(n - 1 + q, q) - 1)
