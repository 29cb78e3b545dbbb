"""Closed forms and the recurrence for descent counts, in exact arithmetic.

Every function here evaluates a polynomial, an alternating sum or a finite
DP with plain integer operations; the oracle module provides the enumerative
ground truth these must match.  Each level of the recurrence counts its
bounded words with one value-insertion DP over the filled positions, at most
2**largest states.  The stabilized closed form is a signed sum over the
2**(|I|-1) coarsenings of the first differences, but it is evaluated by a
forward recurrence over the prefix ends of the descent set, in O(|I|**2)
binomial products; ``signed_coarsenings`` is the explicit expansion, which
``schur.jacobi_trudi_terms`` lists.  One n at a time the recurrence runs on
scalars (``stable_descent_count``, ``last_fixed_formula``); for a run of
consecutive n, as coefficient extraction samples, ``_stable_run`` runs it
once on rows of samples, each block-sum binomial stepped along n.
"""

from __future__ import annotations

from math import comb
from typing import Callable, Iterator, Sequence

from .core import (
    DescentSet,
    DomainError,
    block_sums,
    compositions,
    require_positive,
    strict_ints,
)
from .oracle import DEFAULT_BUDGET, EnumerationBudget
from .oracle import count_content  # noqa: F401  perfbench/spans.py traces this binding


def binom_poly(n: int, r: int) -> int:
    """Binomial coefficient read as a degree-r polynomial in ``n``.

    Equals n(n-1)...(n-r+1)/r! for every integer ``n``, negative included.
    It is evaluated by ``math.comb``, through the reflection
    binom(n, r) = (-1)**r * binom(r-n-1, r) when n < 0, so no product of r
    factors is formed.
    """
    if type(n) is not int or type(r) is not int:
        strict_ints((n, r), "binomial arguments")
    if r < 0:
        raise DomainError(f"binomial order must be >= 0, got {r}")
    return comb(n, r) if n >= 0 else (-1) ** r * comb(r - n - 1, r)


def stabilization_point(descents: DescentSet) -> int:
    """Smallest multiplicity beyond which the count stops growing.

    Equals largest - size + 1 and never depends on the alphabet.
    """
    return descents.largest - len(descents) + 1


def bounded_sequence_count(
    descents: DescentSet, n: int, m: int, budget: EnumerationBudget | None = None
) -> int:
    """Count length-``largest`` words over 1..n, each value used at most m
    times, with strict drops exactly at the descent set minus its largest
    element.

    Insert the values in increasing order.  The state is the bitmask of
    filled positions, and each value fills a set T of 1..m free positions:
    q may join T when a drop at q finds q+1 filled (the later value is
    larger) and an ascent at q-1 finds q-1 filled or in T (never smaller).
    The values a word uses are chosen apart from its shape, so a full mask
    reached after r values adds its ways times binom(n, r).  There are at
    most 2**largest states; T is built on an explicit stack in increasing
    position order from the feasible positions only, and the budget's
    ``max_work`` caps the (state, T) transitions of one call, each charged
    the 64-bit words of its masks, 1 + ``largest`` // 64.
    Valid for every n, m >= 1.
    """
    require_positive(n=n, m=m)
    return _insert_values(descents, n, m, budget or DEFAULT_BUDGET, 0)[0]


def _insert_values(
    descents: DescentSet, n: int, m: int, budget: EnumerationBudget, moves: int
) -> tuple[int, int]:
    """The DP of :func:`bounded_sequence_count`; return its count and
    ``moves`` plus the work of the transitions made, raising past the
    budget.  A transition costs the 64-bit words of its masks,
    1 + ``largest`` // 64; the first value always makes one, so a DP that
    cannot afford it is refused before any mask is built."""
    limit = budget.max_work
    length = descents.largest
    cost = 1 + length // 64
    if moves + cost > limit:
        raise budget.refusal("transitions of the insertion DP")
    full = (1 << (length + 1)) - 2  # bit q stands for position q
    drops = sum(1 << p for p in descents.elements[:-1])
    after_rise = (full & ~drops & ~(1 << length)) << 1  # q-1 to q may not drop
    total = 0
    frontier = {0: 1}
    for r in range(1, min(n, length) + 1):
        reached: dict[int, int] = {}
        for filled, ways in frontier.items():
            # A drop at q waits for q+1; an ascent into q waits for q-1,
            # unless q-1 joins T first (``chained``).
            ready = full & ~filled & ~(drops & ~(filled >> 1))
            chained = ready & after_rise
            alone = ready & ~(after_rise & ~(filled << 1))
            stack = [(0, 0, 0)]  # (T, |T|, highest position in T)
            while stack:
                chosen, size, last = stack.pop()
                options = (alone >> (last + 1)) << (last + 1)
                # last + 1 may follow last into T; ``chained`` never holds
                # bit 1, so this adds nothing at the root
                if (chained >> (last + 1)) & 1:
                    options |= 1 << (last + 1)
                while options:
                    low = options & -options
                    options ^= low
                    moves += cost
                    if moves > limit:
                        raise budget.refusal("transitions of the insertion DP")
                    state = filled | chosen | low
                    reached[state] = reached.get(state, 0) + ways
                    if size + 1 < m:
                        stack.append((chosen | low, size + 1, low.bit_length() - 1))
        total += reached.pop(full, 0) * binom_poly(n, r)
        if not reached:
            break
        frontier = reached
    return total, moves


def descent_count(
    descents: DescentSet, n: int, m: int, budget: EnumerationBudget | None = None
) -> int:
    """Number of words holding each of 1..n exactly m times whose descent
    set is exactly ``descents``.

    Evaluated along the chain I, I-minus-largest, ... down to the empty set:
    at each level the bounded sequence count splits into the words where the
    final compared position does or does not drop.  When the largest element
    has no successor position the count is zero, and no level is computed.
    The budget's ``max_work`` caps the DP transitions of all levels together,
    each charged 1 + its level's ``largest`` // 64.
    """
    require_positive(n=n, m=m)
    if descents and descents.largest >= n * m:
        return 0
    budget = budget or DEFAULT_BUDGET
    chain = []
    cur = descents
    while cur:
        chain.append(cur)
        cur = cur.without_largest
    value = 1  # empty descent set: only the fully sorted word
    moves = 0
    for level in reversed(chain):
        words, moves = _insert_values(level, n, m, budget, moves)
        value = words - value
    return value


def signed_coarsenings(weights: Sequence[int]) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Yield ``(sign, sums)`` for each way of merging runs of adjacent weights.

    ``sign`` is -1 to the number of merges, len(weights) - len(sums); there
    are 2**(len(weights)-1) coarsenings, the finest first.  No counting route
    uses it (the closed forms sum the same coarsenings by a prefix
    recurrence): only ``schur.jacobi_trudi_terms`` (so demo 04) and the
    tests do.
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


# Samples per block of ``_stable_run``, the width of its rows.  A process
# extracting the coefficients of {1, 3, 6, ..., 630} peaks in RSS 22% above
# one sampling point by point at 64 and 3% above at 16, which costs small
# sets a few percent more time.
_RUN_BLOCK = 16


def _stable_run(descents: DescentSet, start: int, count: int) -> list[int]:
    """``stable_descent_count`` at n = start, ..., start + count - 1.

    The prefix-end recurrence of :func:`_alternating_sum`, run once on rows
    of samples.  The row of block sum q holds P(n) = binom(n - 1 + q, q) =
    n(n + 1)...(n + q - 1)/q!, stepped along n by the exact n * P(n + 1) =
    (n + q) * P(n), or P(1) = 1 where n = 0; rows are built only for the
    block sums that occur.  Row j of the recurrence keeps -G[j], so each
    product is subtracted and no row is negated.  The samples go through in
    blocks of ``_RUN_BLOCK``, so at most (distinct block sums + |I|) rows of
    that width are alive at once however many samples are asked for.
    """
    top = descents.largest
    ends = (0, *descents.elements)
    inner = ends[1:-1]
    # P_q(n - 1) for the n that starts the next block
    before = {
        q: binom_poly(start - 2 + q, q)
        for q in {e - f for i, e in enumerate(ends) for f in ends[:i]}
    }
    run: list[int] = []
    for low in range(start, start + count, _RUN_BLOCK):
        steps = range(low - 1, min(low + _RUN_BLOCK, start + count) - 1)
        rows = {}
        for q, b in before.items():
            rows[q] = [b := b * (x + q) // x if x else 1 for x in steps]
            before[q] = b
        kept: list[list[int]] = []  # -G[j] for the inner prefix ends so far
        for e in inner:
            total = rows[e]
            for f, g in zip(inner, kept):
                total = [t - c * h for t, c, h in zip(total, rows[e - f], g)]
            kept.append(total)
        total = [c - 1 for c in rows[top]]
        for f, g in zip(inner, kept):
            total = [t - (c - 1) * h for t, c, h in zip(total, rows[top - f], g)]
        run += total if len(descents) % 2 else [-t for t in total]
    return run


def last_fixed_formula(descents: DescentSet, n: int, j: int) -> int:
    """Alternating composition sum for the words whose last value is ``j``.

    Counts length-``largest`` words over 1..n with drops exactly at the
    descent set minus its largest element and final value j.  Agrees with
    the brute-force count once n >= largest.
    """
    require_positive(n=n, j=j)
    if j > n:
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
    strict_ints((n,), "n")
    return _alternating_sum(descents, n, lambda q: binom_poly(n - 1 + q, q) - 1)
