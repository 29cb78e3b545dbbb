"""Brute-force counters: frozen small values and cross-identities.

The expected numbers here were derived by hand or by the independent helper
enumerations in this file, never from the functions under test.
"""

from itertools import permutations, product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multidescent.core import BudgetExceededError, DescentSet, DomainError, descent_set
from multidescent.formulas import stabilization_point
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
    descent_histogram,
)


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
        for ds in _sets_within(4):
            expected = sum(1 for w in words if descent_set(w) == ds)
            assert count_naive(ds, n, m) == expected


def test_count_naive_descent_beyond_word_is_zero():
    assert count_naive(DescentSet((4,)), 2, 2) == 0
    assert count_naive(DescentSet((9,)), 3, 3) == 0


def test_count_naive_budget_refusal_names_the_bound():
    # {1,1,2,2,3,3} has 6!/2!**3 = 90 arrangements
    with pytest.raises(BudgetExceededError, match="max_work = 89"):
        count_naive(DescentSet((2,)), 3, 2, budget=EnumerationBudget(89))
    assert count_naive(DescentSet((2,)), 3, 2, budget=EnumerationBudget(90)) == 5
    # 12! arrangements, and one word of 10**11 cells, refused before any work
    with pytest.raises(BudgetExceededError, match="max_work = 10000000"):
        count_naive(DescentSet((2,)), 12, 1)
    with pytest.raises(BudgetExceededError, match="max_work = 10000000"):
        count_naive(DescentSet((5,)), 1, 10**11)


def test_descent_histogram_tallies_every_arrangement_once():
    for n in range(1, 11):
        for m in range(1, 10 // n + 1):
            histogram = descent_histogram(n, m)
            assert sum(histogram.values()) == factorial(n * m) // factorial(m) ** n
            assert histogram[DescentSet()] == 1  # the sorted word
            # count_prefix needs 11 s for the 512 sets of n = 10, m = 1
            route = count_via_jacobi_trudi if n == 10 else count_prefix
            for ds, count in histogram.items():
                assert count == route(ds, n, m), (ds, n, m)


def test_descent_histogram_refuses_like_count_naive():
    with pytest.raises(BudgetExceededError, match="max_work = 89"):
        descent_histogram(3, 2, EnumerationBudget(89))
    assert descent_histogram(3, 2, EnumerationBudget(90))[DescentSet((2,))] == 5
    with pytest.raises(BudgetExceededError, match="n = 12, m = 1, more than"):
        descent_histogram(12, 1)
    with pytest.raises(DomainError):
        descent_histogram(0, 2)


@given(
    st.sets(st.integers(1, 10), max_size=5),
    st.integers(1, 9).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, 10 // n))),
)
@settings(max_examples=40, deadline=None)
def test_count_naive_agrees_with_count_prefix(elements, size):
    # n = 10, m = 1 is left out: one enumeration of 10! words takes 3 s
    ds = DescentSet(elements)
    n, m = size
    assert count_naive(ds, n, m) == count_prefix(ds, n, m)


@pytest.mark.parametrize(
    "elements,n,m", [((2, 5), 2, 8), ((2,), 3, 5)], ids=["12870", "756756"]
)
def test_count_naive_charges_arrangements_not_cells(elements, n, m):
    # more than 12 cells, few enough arrangements for the default budget
    ds = DescentSet(elements)
    assert count_naive(ds, n, m) == count_prefix(ds, n, m)


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


def _sets_within(top):
    from itertools import combinations

    out = []
    for size in range(1, top + 1):
        out.extend(DescentSet(c) for c in combinations(range(1, top + 1), size))
    return out


def test_count_prefix_agrees_with_count_naive_on_a_small_grid():
    for ds in _sets_within(3):
        for n in range(1, 4):
            for m in range(1, 3):
                assert count_prefix(ds, n, m) == count_naive(ds, n, m), (ds, n, m)


def test_count_prefix_weakly_increases_with_multiplicity():
    for ds in _sets_within(3):
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
    for ds in _sets_within(4):
        for i in range(ds.largest + 2):
            assert count_coeff_witnesses(ds, i) == count_onto_upper(
                ds, i
            ) + count_onto_full(ds, i), (ds, i)


def test_onto_upper_recursion_through_the_shorter_set():
    for ds in _sets_within(4):
        if len(ds) < 2:
            continue
        for i in range(ds.largest + 1):
            assert count_onto_upper(ds, i + 1) == count_onto_full(
                ds, i
            ) + count_coeff_witnesses(ds.without_largest, i), (ds, i)


def test_onto_upper_vanishes_past_the_word_length():
    for ds in _sets_within(3):
        assert count_onto_upper(ds, ds.largest + 1) == 0


def test_last_fixed_sums_to_the_stabilized_count():
    for ds in _sets_within(4):
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
    for ds in _sets_within(4):
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


def test_count_prefix_matches_a_product_reference():
    for n, m in ((1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)):
        tally = {}
        for w in product(range(1, n + 1), repeat=n * m):
            if all(w.count(v) == m for v in range(1, n + 1)):
                key = descent_set(w)
                tally[key] = tally.get(key, 0) + 1
        for ds in _sets_within(4):
            assert count_prefix(ds, n, m) == tally.get(ds, 0), (ds, n, m)


def test_walks_have_no_recursion_ceiling():
    ds = DescentSet((1100,))
    assert count_content((1100,), ds) == 1
    assert count_last_fixed(ds, 1, 1) == 1
    assert count_coeff_witnesses(ds, 1) == 1100  # 1^a 2^(1100-a), a < 1100
    assert count_prefix(ds, 2, 1100) == 1100 == count_via_jacobi_trudi(ds, 2, 1100)


def test_count_prefix_budget_trips_on_a_deep_walk():
    with pytest.raises(BudgetExceededError, match="max_work = 10000"):
        count_prefix(DescentSet((1100,)), 1200, 1, EnumerationBudget(max_work=10_000))
