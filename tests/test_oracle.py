"""Brute-force counters: frozen small values and cross-identities.

The expected numbers here were derived by hand or by the independent helper
enumerations in this file, never from the functions under test.
"""

import json
import subprocess
import sys
import time
from collections import Counter
from functools import cache
from itertools import combinations, permutations, product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multidescent import oracle
from multidescent.core import BudgetExceededError, DescentSet, DomainError, descent_set
from multidescent.formulas import last_fixed_formula, stabilization_point
from multidescent.polybasis import extract_coeffs
from multidescent.schur import count_via_jacobi_trudi
from multidescent.oracle import (
    EnumerationBudget,
    count_coeff_witnesses,
    count_content,
    count_last_fixed,
    count_naive,
    count_onto_full,
    count_onto_upper,
    count_prefix,
    last_value_counts,
    onto_counts,
    witness_counts,
    _witness_counts,
)
from multidescent.verify import descent_sets_up_to


def multiset_words(n, m):
    """Independent reference: distinct rearrangements via a permutation set."""
    base = tuple(v for v in range(1, n + 1) for _ in range(m))
    return set(permutations(base))


def test_count_naive_known_value():
    # the five words over {1,1,2,2,3,3} dropping exactly at position 2
    assert count_naive(DescentSet((2,)), 3, 2) == 5


def test_count_naive_empty_set_is_one():
    for n, m in product(range(1, 4), range(1, 3)):
        assert count_naive(DescentSet(), n, m) == 1


def test_count_naive_single_descent_two_letters():
    assert count_naive(DescentSet((1,)), 2, 1) == 1


def test_count_naive_matches_reference_enumeration():
    for n, m in ((2, 2), (3, 2), (2, 3)):
        words = multiset_words(n, m)
        assert len(words) > 0
        for ds in descent_sets_up_to(4):
            expected = sum(1 for w in words if descent_set(w) == ds)
            assert count_naive(ds, n, m) == expected


def test_count_naive_descent_beyond_word_is_zero():
    assert count_naive(DescentSet((4,)), 2, 2) == 0
    assert count_naive(DescentSet((9,)), 3, 3) == 0


def test_count_naive_budget_refusal_names_the_bound():
    # {1,1,2,2,3,3} under {2}: the per-value lists and the layers of 1, 3,
    # 6, 8, 13 and 6 states, 38 in all, each charged its 3 offers of one word
    with pytest.raises(BudgetExceededError, match="max_work = 113"):
        count_naive(DescentSet((2,)), 3, 2, budget=EnumerationBudget(113))
    assert count_naive(DescentSet((2,)), 3, 2, budget=EnumerationBudget(114)) == 5
    # a second layer of 3000 states, each of 3000 offers of 47 words, and
    # one word of 10**11 cells, refused before any work
    refused = (
        "full enumeration of 3000 values in 3000 positions, "
        "more than max_work = 10000000"
    )
    with pytest.raises(BudgetExceededError, match=refused):
        count_naive(DescentSet((2,)), 3000, 1)
    with pytest.raises(BudgetExceededError, match="max_work = 10000000"):
        count_naive(DescentSet((5,)), 1, 10**11)


def test_count_naive_matches_the_permutation_set_whole():
    # every set within {1..n*m - 1} and the empty one, at every (n, m) of at
    # most 8 cells: n = 1 answered without a layer, and the transfer's drops
    # at every position of a word; the counts add up to every word
    for n in range(1, 9):
        for m in range(1, 8 // n + 1):
            words = multiset_words(n, m)
            expected = Counter(descent_set(w) for w in words)
            sets = descent_sets_up_to(n * m - 1) if n * m > 1 else []
            counts = {ds: count_naive(ds, n, m) for ds in [DescentSet(), *sets]}
            assert sum(counts.values()) == len(words), (n, m)
            for ds, count in counts.items():
                assert count == expected[ds], (ds, n, m)


@pytest.mark.parametrize("n,m", [(9, 1), (10, 1), (3, 3), (5, 2), (2, 5)])
def test_count_naive_meets_jacobi_trudi_on_every_set(n, m):
    # past the permutation reference's 8 cells: every set within
    # {1..n*m - 1} and the empty one, against a route that shares no code
    # with the transfer; the counts add up to every arrangement
    sets = [DescentSet(), *descent_sets_up_to(n * m - 1)]
    counts = [count_naive(ds, n, m) for ds in sets]
    assert counts == [count_via_jacobi_trudi(ds, n, m) for ds in sets]
    assert sum(counts) == factorial(n * m) // factorial(m) ** n


@pytest.mark.parametrize(
    "n,m,elements",
    [
        (1, 10**7, (5,)),
        (2, 12, (3, 7, 11, 15)),
        (6, 2, (2, 5, 8)),
        (10, 1, (2, 4, 6, 8)),
    ],
)
def test_count_naive_answers_under_a_memory_cap(
    run_under_address_limit, n, m, elements
):
    # the largest points within the default budget, 10**7 cells of one value
    # and 24!/12!**2, 12!/2**6 and 10! arrangements, each answered in 64 MB
    # of address space: a list of the 10**7 values of the one word of n = 1
    # would not fit, so that word is answered without placing a value
    resource = pytest.importorskip("resource")
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    code, out, err = run_under_address_limit(
        64, f"oracle.count_naive(DescentSet({elements}), {n}, {m})"
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert code == 0, err
    assert out.split() == [str(count_via_jacobi_trudi(DescentSet(elements), n, m))]
    if n == 1:
        cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
        assert cpu < 1


@given(
    st.sets(st.integers(1, 10), max_size=5),
    st.integers(1, 10).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, 10 // n))
    ),
)
@settings(max_examples=100, deadline=None)
def test_count_naive_agrees_with_count_prefix(elements, size):
    # n = 10, m = 1 is drawn too: the transfer counts one set of its 10!
    # words in about 0.01 s, so the ten or so draws of it stay cheap
    ds = DescentSet(elements)
    n, m = size
    assert count_naive(ds, n, m) == count_prefix(ds, n, m)


@pytest.mark.parametrize(
    "elements,n,m",
    [
        ((2, 5), 2, 8),
        ((2,), 3, 5),
        ((2,), 12, 1),
        ((3,), 3, 6),
        ((2, 4, 6, 8, 10), 3, 6),
        ((2, 4, 6, 8), 3, 30),
        ((2, 4, 6, 8, 10, 12), 4, 10),
    ],
    ids=["12870", "756756", "2-12-1", "3-3-6", "2-10-3-6", "2-8-3-30", "2-12-4-10"],
)
def test_count_naive_charges_its_layers_not_arrangements(elements, n, m):
    # the first two contents have 12870 and 756756 arrangements; the others
    # have 12! to 90!/30!**3, past the default budget, but the transfer's
    # layers stay within it, charged 117,336 at most
    ds = DescentSet(elements)
    assert count_naive(ds, n, m) == count_via_jacobi_trudi(ds, n, m)


@pytest.mark.parametrize("cap", ["max_total_cells", "max_prefix_states"])
@pytest.mark.parametrize("value", [True, 2.5, 7.9, "12", 0])
def test_budget_caps_must_be_positive_ints(cap, value):
    # max_work is the one cap; the two it replaced are refused, not aliased
    with pytest.raises(DomainError):
        EnumerationBudget(max_work=value)
    with pytest.raises(TypeError, match=cap):
        EnumerationBudget(**{cap: value})


def test_count_naive_rejects_bad_sizes():
    with pytest.raises(DomainError):
        count_naive(DescentSet((1,)), 0, 2)
    with pytest.raises(DomainError):
        count_naive(DescentSet((1,)), 2, 0)


def test_count_prefix_known_value():
    assert count_prefix(DescentSet((2,)), 3, 2) == 5


def test_count_prefix_counts_the_sorted_word_for_the_empty_set():
    # no prefix to walk: the whole word is its sorted tail
    assert count_prefix(DescentSet(), 3, 2) == 1
    assert count_prefix(DescentSet(), 1, 1) == 1


def test_count_prefix_zero_when_no_tail_position():
    assert count_prefix(DescentSet((2,)), 1, 2) == 0
    assert count_prefix(DescentSet((4,)), 2, 2) == 0
    assert count_prefix(DescentSet((6,)), 2, 2) == 0


def test_count_prefix_strict_word():
    # only (3,2,1) drops at both early positions with single copies
    assert count_prefix(DescentSet((1, 2)), 3, 1) == 1


def test_count_prefix_budget_cap():
    tiny = EnumerationBudget(max_work=3)
    with pytest.raises(BudgetExceededError, match="max_work = 3"):
        count_prefix(DescentSet((2, 4)), 4, 2, budget=tiny)


def test_count_prefix_charges_the_last_position():
    # a one-position prefix: the walk's only work is the five last values
    with pytest.raises(BudgetExceededError, match="max_work = 4"):
        count_prefix(DescentSet((1,)), 5, 1, EnumerationBudget(4))
    assert count_prefix(DescentSet((1,)), 5, 1, EnumerationBudget(5)) == 4


@pytest.mark.parametrize(
    "elements,n,m,least_work",
    [
        ((1,), 5, 1, 5),  # no second-to-last position: one last range
        ((2,), 3, 2, 9),  # the second-to-last position is the first
        ((3, 4), 4, 2, 69),  # the last step drops
        ((2, 4), 4, 2, 99),  # the last step ascends
        ((1, 3), 4, 1, 30),  # m = 1: every second-to-last value caps, least moves
        ((2, 4, 6, 8), 8, 4, 758_639),  # the heaviest count-dense op
        # m = 1: every value starts one use below its cap, and each placement
        # moves a value from that mask to the capped one; each case is named
        # by its steps x to a and a to the last value (drop, rise or fall),
        # and by the end of the alphabet x's range touches: 1 when the word
        # drops to x, n otherwise
        ((2, 4, 6), 7, 1, 2317),  # drop then rise, x's range up to n
        ((2, 3, 4, 6), 8, 1, 2178),  # drop then rise, x's range from 1
        ((2, 5, 6), 7, 1, 1393),  # rise then fall, x's range up to n
        # m = 2: every value starts two uses below its cap, and each first
        # placement moves it to the one-below mask
        ((2, 4, 5, 6), 8, 2, 13_134),  # drop then fall: the capped mask alone
        ((3, 4, 6), 8, 2, 10_936),  # drop then rise, x's range from 1
        ((1, 3, 6, 7), 8, 2, 77_350),  # rise then fall, x's range up to n
        ((1, 4, 6, 8), 8, 2, 370_503),  # drop then rise, x's range up to n
        # m = 3, rise then rise: values two uses below their caps at the
        # handover, read by the third mask
        ((2, 4, 7), 7, 3, 49_701),  # x's range from 1
        ((2, 7), 8, 3, 36_786),  # x's range up to n
    ],
)
def test_count_prefix_refusal_thresholds_are_pinned(elements, n, m, least_work):
    # the least max_work that answers, one value placed or offered a unit
    ds = DescentSet(elements)
    expected = count_via_jacobi_trudi(ds, n, m)
    assert count_prefix(ds, n, m, EnumerationBudget(least_work)) == expected
    with pytest.raises(BudgetExceededError, match=f"max_work = {least_work - 1}$"):
        count_prefix(ds, n, m, EnumerationBudget(least_work - 1))


def _walk_charge(ds, caps):
    """Independent reference for a word walk's charge: 1 for each partial
    word of length 1..max(I) - 2 that keeps the caps and the drops of I
    minus max(I), listed by ``itertools.product``, and for each one of
    length max(I) - 2, each value a of its second-to-last range below its
    cap: a before a drop to the last value, else len(caps) + 2 - a.  A
    word of one value is charged its whole alphabet.  A budget below
    max(I) - 1 is refused before the walk starts, even when no word fits."""
    d, top = ds.largest, len(caps) + 1
    if d == 1:
        return len(caps)
    drops = set(ds.elements[:-1])
    charge = 0
    for length in range(d - 1):
        for w in product(range(1, top), repeat=length):
            if any(w.count(v) > caps[v - 1] for v in w) or any(
                (w[i - 1] > w[i]) != (i in drops) for i in range(1, length)
            ):
                continue
            charge += length > 0  # the empty word places nothing
            if length < d - 2:
                continue
            if not w:
                second = range(1, top)
            elif length in drops:
                second = range(1, w[-1])
            else:
                second = range(w[-1], top)
            for a in second:
                if w.count(a) < caps[a - 1]:
                    charge += a if d - 1 in drops else 1 + top - a
    return max(charge, d - 1)


def test_walk_charges_match_a_product_reference():
    # the least max_work that answers is the reference charge for the prefix
    # route, on a whole grid and on sets within {1..7} holding 7 at n = 7,
    # two for each step pattern of the last three positions, where many
    # prefixes share the masks a handover's sums are memoized by
    points = [
        (ds, n, m)
        for ds in descent_sets_up_to(6)
        for n in range(1, 5)
        for m in range(1, 4)
        if ds.largest < n * m  # else answered 0 before any walk
    ]
    tails = [tail for k in range(4) for tail in combinations((4, 5, 6), k)]
    points += [
        (DescentSet((*low, *tail, 7)), 7, m)
        for low in ((2,), (1, 3))
        for tail in tails
        for m in (2, 3)
    ]
    for ds, n, m in points:
        least_work = _walk_charge(ds, (m,) * n)
        expected = count_prefix(ds, n, m)
        assert count_prefix(ds, n, m, EnumerationBudget(least_work)) == expected
        if least_work > 1:
            with pytest.raises(
                BudgetExceededError, match=f"max_work = {least_work - 1}$"
            ):
                count_prefix(ds, n, m, EnumerationBudget(least_work - 1))


@cache
def _witness_charge(largest):
    """Independent reference for the witness transfer's charge at max(I) =
    ``largest``: for each length k of 1..max(I), the distinct (number of
    values held, rank of the last value among them) states of the words of
    length k over 1..k, whatever their drops, listed by
    ``itertools.product``: a layer holds an entry for each state a prefix
    of its length could reach."""
    charge = 0
    for length in range(1, largest + 1):
        charge += len(
            {
                (len(set(w)), sorted(set(w)).index(w[-1]))
                for w in product(range(1, length + 1), repeat=length)
            }
        )
    return charge


def test_tally_kernels_charge_like_the_product_reference():
    # the witness table is a transfer over (values held, last rank) states,
    # each value free: the least max_work that answers is the reference charge
    for ds in descent_sets_up_to(6):
        least_work = _witness_charge(ds.largest)
        table = witness_counts(ds)
        assert _witness_counts(ds, EnumerationBudget(least_work)) == table
        if least_work > 1:
            refused = f"max_work = {least_work - 1}$"
            with pytest.raises(BudgetExceededError, match=refused):
                _witness_counts(ds, EnumerationBudget(least_work - 1))


@pytest.mark.parametrize(
    "elements,least_work",
    [
        ((2, 4, 7), 84),
        ((1, 3, 5, 8), 120),
        ((3, 5, 6, 8), 120),
        ((3, 5, 8, 10), 220),
    ],
)
def test_tally_kernel_refusal_thresholds_are_pinned(elements, least_work):
    # the least max_work that answers, past the sets the product reference
    # reaches: the witness transfer at max(I) 7, 8 and 10, whatever the drops
    ds = DescentSet(elements)
    expected = _witness_counts(ds)
    assert _witness_counts(ds, EnumerationBudget(least_work)) == expected
    with pytest.raises(BudgetExceededError, match=f"max_work = {least_work - 1}$"):
        _witness_counts(ds, EnumerationBudget(least_work - 1))


def test_count_prefix_agrees_with_count_naive_on_a_small_grid():
    # every (n, m) with n <= 5, m <= 4 and n*m <= 10: about 120,000 words,
    # counted once for each set
    for n in range(1, 6):
        for m in range(1, min(4, 10 // n) + 1):
            for ds in descent_sets_up_to(6):
                expected = count_naive(ds, n, m)
                assert count_prefix(ds, n, m) == expected, (ds, n, m)


def test_count_prefix_weakly_increases_with_multiplicity():
    for ds in descent_sets_up_to(3):
        for n in range(ds.largest + 1, ds.largest + 4):
            values = [count_prefix(ds, n, m) for m in range(1, ds.largest + 3)]
            assert values == sorted(values), (ds, n, values)


def test_count_content_frozen_values():
    assert count_content((1, 1), DescentSet((2,))) == 1
    assert count_content((2,), DescentSet((2,))) == 1
    assert count_content((1, 1), DescentSet((1, 2))) == 1


def test_count_content_reference_enumeration():
    # independent check: filter all words over 1..len(parts) by content
    ds = DescentSet((1, 3))
    parts = (1, 2)
    drops = {1}
    expected = 0
    for w in product(range(1, 3), repeat=3):
        if any(w.count(v + 1) != parts[v] for v in range(2)):
            continue
        seen = {i for i in range(1, 3) if w[i - 1] > w[i]}
        if seen == drops:
            expected += 1
    assert count_content(parts, ds) == expected


def test_count_content_rejects_non_integer_parts():
    with pytest.raises(DomainError):
        count_content((1.7, 1), DescentSet((2,)))
    with pytest.raises(DomainError):
        count_content(("1", True), DescentSet((2,)))


def test_count_content_rejects_mismatched_total():
    with pytest.raises(DomainError):
        count_content((1, 2), DescentSet((2,)))
    with pytest.raises(DomainError):
        count_content((2, 0), DescentSet((2,)))


def test_count_last_fixed_frozen_values():
    assert count_last_fixed(DescentSet((2,)), 3, 2) == 2  # (1,2) and (2,2)
    assert count_last_fixed(DescentSet((1,)), 2, 1) == 1  # the word (1)
    assert count_last_fixed(DescentSet((2,)), 1, 1) == 1  # the word (1,1)


def test_count_last_fixed_rejects_out_of_range_value():
    with pytest.raises(DomainError):
        count_last_fixed(DescentSet((2,)), 3, 4)
    with pytest.raises(DomainError):
        count_last_fixed(DescentSet((2,)), 3, 0)


def test_count_coeff_witnesses_frozen_values():
    ds = DescentSet((2,))
    assert count_coeff_witnesses(ds, 0) == 0
    assert count_coeff_witnesses(ds, 1) == 2  # (1,2) and (2,2)
    assert count_coeff_witnesses(ds, 2) == 1  # (2,3)


def test_count_onto_frozen_values():
    ds = DescentSet((2,))
    assert count_onto_upper(ds, 1) == 1  # (2,2)
    assert count_onto_full(ds, 1) == 1  # (1,2)
    assert count_onto_upper(ds, 0) == 0  # empty alphabet
    assert count_onto_full(ds, 0) == 0


@pytest.mark.parametrize(
    "counter", [count_coeff_witnesses, count_onto_upper, count_onto_full]
)
@pytest.mark.parametrize("index", [1.0, "1", True, -1])
def test_witness_counters_take_only_int_indices(counter, index):
    with pytest.raises(DomainError):
        counter(DescentSet((2,)), index)


def test_witnesses_split_by_presence_of_one():
    for ds in descent_sets_up_to(4):
        for i in range(ds.largest + 2):
            assert count_coeff_witnesses(ds, i) == count_onto_upper(
                ds, i
            ) + count_onto_full(ds, i), (ds, i)


def test_onto_upper_recursion_through_the_shorter_set():
    for ds in descent_sets_up_to(4):
        if len(ds) < 2:
            continue
        for i in range(ds.largest + 1):
            assert count_onto_upper(ds, i + 1) == count_onto_full(
                ds, i
            ) + count_coeff_witnesses(ds.without_largest, i), (ds, i)


def test_onto_upper_vanishes_past_the_word_length():
    for ds in descent_sets_up_to(3):
        assert count_onto_upper(ds, ds.largest + 1) == 0


def test_last_fixed_sums_to_the_stabilized_count():
    for ds in descent_sets_up_to(4):
        point = stabilization_point(ds)
        for n in range(ds.largest, ds.largest + 3):
            total = sum(count_last_fixed(ds, n, j) for j in range(2, n + 1))
            assert total == count_prefix(ds, n, point), (ds, n)


def _pattern_reference(ds, values):
    """Independent reference: every word of length max(I) over 1..values,
    from ``itertools.product``, whose drops sit exactly at I minus max(I)."""
    drops = set(ds.elements[:-1])
    for w in product(range(1, values + 1), repeat=ds.largest):
        if {i for i in range(1, len(w)) if w[i - 1] > w[i]} == drops:
            yield w


def test_walk_counters_match_a_product_reference():
    # every set within {1..4}, and longer sets whose last step drops
    longer = [DescentSet(e) for e in ((4, 5), (2, 4, 5), (1, 3, 4, 5))]
    for ds in descent_sets_up_to(4) + longer:
        d = ds.largest
        for r in range(1, d + 1):
            for parts in product(range(1, d + 1), repeat=r):
                if sum(parts) != d:
                    continue
                expected = sum(
                    1
                    for w in _pattern_reference(ds, r)
                    if all(w.count(v) == parts[v - 1] for v in range(1, r + 1))
                )
                assert count_content(parts, ds) == expected, (ds, parts)
        for n in range(1, 5):
            words = list(_pattern_reference(ds, n))
            for j in range(1, n + 1):
                expected = sum(1 for w in words if w[-1] == j)
                assert count_last_fixed(ds, n, j) == expected, (ds, n, j)
        for i in range(d + 2):
            words = list(_pattern_reference(ds, i + 1))
            upper = set(range(2, i + 2))
            assert count_coeff_witnesses(ds, i) == sum(
                1 for w in words if w[-1] != 1 and upper <= set(w)
            ), (ds, i)
            assert count_onto_upper(ds, i) == sum(
                1 for w in words if set(w) == upper
            ), (ds, i)
            assert count_onto_full(ds, i) == sum(
                1 for w in words if w[-1] != 1 and set(w) == upper | {1}
            ), (ds, i)


def test_tallies_match_a_product_reference():
    # both one-walk tallies, against words listed by itertools.product: the
    # witness table's two sides by their value sets, and its inclusion-
    # exclusion twin with one padded row past max(I); the last-value tally
    # by last value, at every n up to max(I) + 2
    for ds in descent_sets_up_to(5):
        d = ds.largest
        words = list(_pattern_reference(ds, d + 2))
        expected = []
        for i in range(d + 1):
            upper = set(range(2, i + 2))
            expected.append(
                (
                    sum(1 for w in words if set(w) == upper),
                    sum(1 for w in words if w[-1] != 1 and set(w) == upper | {1}),
                )
            )
        assert witness_counts(ds) == tuple(expected), ds
        assert onto_counts(ds, d + 1) == (*expected, (0, 0)), ds
        for n in range(1, d + 3):
            lasts = Counter(w[-1] for w in words if max(w) <= n)
            expected = tuple(lasts[j] for j in range(1, n + 1))
            assert last_value_counts(ds, n) == expected, (ds, n)


@given(st.sets(st.integers(1, 80), min_size=1, max_size=40))
@settings(max_examples=25, deadline=None)
def test_witness_transfer_reaches_max_eighty(elements):
    # far past max(I) = 14, where a transfer over the masks of the values
    # placed is refused under the default budget: the witness table against
    # its inclusion-exclusion twin off the last-value tallies
    ds = DescentSet(elements)
    assert witness_counts(ds) == onto_counts(ds, ds.largest)


@given(st.sets(st.integers(1, 80), min_size=1, max_size=40))
@settings(max_examples=25, deadline=None)
def test_last_value_transfer_reaches_max_eighty(elements):
    # past the sets any walk reaches: the last-value tallies against the
    # closed form at each last value, and the witness rows read off them
    # against the offset -1 coefficients
    ds = DescentSet(elements)
    d = ds.largest
    for n in range(d, d + 3):
        counts = last_value_counts(ds, n)
        for j in range(1, n + 1):
            assert counts[j - 1] == last_fixed_formula(ds, n, j), (ds, n, j)
    poly = extract_coeffs(ds, -1)
    rows = onto_counts(ds, d)
    assert [sum(row) for row in rows] == [poly.coefficient(i) for i in range(d + 1)]


def test_count_prefix_matches_a_product_reference():
    for n, m in ((1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)):
        tally = {}
        for w in product(range(1, n + 1), repeat=n * m):
            if all(w.count(v) == m for v in range(1, n + 1)):
                key = descent_set(w)
                tally[key] = tally.get(key, 0) + 1
        for ds in descent_sets_up_to(4):
            assert count_prefix(ds, n, m) == tally.get(ds, 0), (ds, n, m)


def test_walks_have_no_recursion_ceiling():
    ds = DescentSet((1100,))
    assert count_content((1100,), ds) == 1
    assert count_last_fixed(ds, 1, 1) == 1
    assert count_coeff_witnesses(ds, 1) == 1100  # 1^a 2^(1100-a), a < 1100
    assert count_prefix(ds, 2, 1100) == 1100 == count_via_jacobi_trudi(ds, 2, 1100)


def test_walks_refuse_a_huge_alphabet_or_word_before_allocating():
    # every value of the alphabet, or every position but the last, would
    # cost at least 1, so each call is refused before the walk builds its
    # per-value caps or per-position lists (8 TB here); the last-value
    # transfer is charged its 2 * 10**7 entries before it builds one, the
    # 2001 transfers of a witness table their 4 * 10**9 entries before the
    # first runs, the witness transfer its C(10**12 + 2, 3) entries before
    # it builds any, a content transfer a word of 10**12 positions before
    # its per-value lists, and a layer of 3000 states before it is built
    huge = DescentSet((10**12,))
    for call in (
        lambda: count_prefix(huge, 2, 10**12),
        lambda: count_prefix(DescentSet((2,)), 10**12, 1),
        lambda: count_coeff_witnesses(huge, 1),
        lambda: witness_counts(huge),
        lambda: count_last_fixed(huge, 3, 2),
        lambda: last_value_counts(DescentSet((2,)), 10**7),
        lambda: count_content((10**12,), DescentSet((10**12,))),
        lambda: count_naive(DescentSet((2,)), 3000, 1),
        lambda: count_coeff_witnesses(DescentSet((2000,)), 2000),
    ):
        start = time.process_time()
        with pytest.raises(BudgetExceededError, match="max_work = 10000000$"):
            call()
        assert time.process_time() - start < 0.1


def test_walks_refuse_a_range_before_working_through_it():
    # each first range alone is over the default budget, and it is charged
    # before a word of it is counted, so the refusal comes at once however
    # wide the alphabet; a witness index past max(I) walks only the values
    # a word can hold, and reads 0
    over = "max_work = 10000000"
    for ds in (DescentSet((2,)), DescentSet((1, 2))):
        with pytest.raises(BudgetExceededError, match=over):
            count_prefix(ds, 10**6, 1)
        assert count_coeff_witnesses(ds, 10**5) == 0


@pytest.mark.parametrize("elements", [(4,), (1, 4), (2, 4), (3, 4), (2, 3, 5)])
def test_count_prefix_refuses_a_wide_range_without_scanning_it(elements):
    # a third-to-last range over 10**6 values passes the default budget
    # within a few thousand of them: count_prefix scans each range from the
    # side a lies on, whichever that is, and stops once its charge passes
    # the budget, rather than passing all 10**6 values first
    start = time.process_time()
    with pytest.raises(BudgetExceededError, match="max_work = 10000000$"):
        count_prefix(DescentSet(elements), 10**6, 1)
    assert time.process_time() - start < 0.3


def test_count_prefix_holds_a_bounded_number_of_range_sums(run_under_address_limit):
    # 11,175 handovers over 150 values with m = 1 each have a key of their
    # own, so nothing is reused; the per-call dict of range sums is emptied
    # each time it holds _TABLE_CELLS // 151 entries, and the call fits in 64 MB
    ds = DescentSet((2, 5))
    code, out, err = run_under_address_limit(
        64, "oracle.count_prefix(DescentSet((2, 5)), 150, 1, "
        "oracle.EnumerationBudget(10**12))"
    )
    assert code == 0, err
    assert out.split() == [str(count_via_jacobi_trudi(ds, 150, 1))]


def test_count_prefix_rescans_the_range_sums_its_bound_dropped(monkeypatch):
    # 315 distinct handovers at ({2,4,6,8}, 8, 3) are each scanned once with
    # the default table; with room for 2 sums the dict is emptied again and
    # again, and the same handovers are scanned 4118 times for the same count
    real = oracle._third_range
    scans = []

    def counted(*args):
        scans.append(args)
        return real(*args)

    monkeypatch.setattr(oracle, "_third_range", counted)
    ds = DescentSet((2, 4, 6, 8))
    assert count_prefix(ds, 8, 3) == 553888
    assert len(scans) == 315
    scans.clear()
    monkeypatch.setattr(oracle, "_TABLE_CELLS", 2 * 9)
    assert count_prefix(ds, 8, 3) == 553888
    assert len(scans) == 4118


@pytest.mark.parametrize(
    "counter", [count_coeff_witnesses, count_onto_upper, count_onto_full]
)
def test_witness_counters_skip_the_value_test_once_it_cannot_hold(counter):
    # one word of length 2 holds at most 2 values, never all of 2..2001, so
    # only the words over 1..3 are walked, and row 2000 reads 0
    start = time.process_time()
    assert counter(DescentSet((2,)), 2000) == 0
    assert time.process_time() - start < 0.1


@pytest.mark.parametrize(
    "counter", [count_coeff_witnesses, count_onto_upper, count_onto_full]
)
def test_witness_counters_build_no_row_past_the_largest_descent(counter):
    # row 9,999,999 of onto_counts would pad 10^7 rows of (0, 0), 160 MB,
    # to read one 0; the counters read the rows up to max(I) only
    tracemalloc = pytest.importorskip("tracemalloc")
    tracemalloc.start()
    try:
        assert counter(DescentSet((2,)), 9_999_999) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_onto_counts_walks_widest_first_and_stops_at_a_refusal(monkeypatch):
    # with t' = min(i, max(I)) the tallies run over t'+1, t', ..., 1 values;
    # the entries of them all are charged, and refused, before any runs
    real = oracle.last_value_counts
    seen = []

    def recording(ds, n):
        seen.append(n)
        return real(ds, n)

    monkeypatch.setattr(oracle, "last_value_counts", recording)
    for elements, i, order in (
        ((3,), 0, [1]),
        ((2, 3), 1, [2, 1]),
        ((2, 3), 9, [4, 3, 2, 1]),
    ):
        seen.clear()
        onto_counts(DescentSet(elements), i)
        assert seen == order, (elements, i)
    seen.clear()
    with pytest.raises(BudgetExceededError, match="max_work = 10000000$"):
        onto_counts(DescentSet((10**8,)), 3)
    assert seen == []


def test_witness_counters_refuse_before_building_their_caps():
    # 10**7 free values are over the default budget: a last-value transfer
    # holds an entry for each, so the call refuses before it allocates per value
    script = """
import json, resource, sys, time
from multidescent.core import BudgetExceededError, DescentSet
from multidescent.oracle import count_coeff_witnesses, count_onto_upper
out = []
for counter, i in ((count_coeff_witnesses, 10**7), (count_onto_upper, 10**7 + 1)):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    start = time.perf_counter()
    try:
        counter(DescentSet((1,)), i)
    except BudgetExceededError as exc:
        message = str(exc)
    seconds = time.perf_counter() - start
    rise_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
    out.append([message, seconds, rise_kb])
print(json.dumps(out))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    for message, seconds, rise_kb in json.loads(proc.stdout):
        assert message == (
            "free values of a last-value transfer, more than max_work = 10000000"
        )
        assert seconds < 0.1
        assert rise_kb < 4096  # the caps alone would be ~80 MB


def test_count_prefix_budget_trips_on_a_deep_walk():
    with pytest.raises(BudgetExceededError, match="max_work = 10000"):
        count_prefix(DescentSet((1100,)), 1200, 1, EnumerationBudget(max_work=10_000))
