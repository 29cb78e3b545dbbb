"""Closed forms and the recurrence against enumerative ground truth."""

import time
from itertools import product
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multidescent import formulas
from multidescent.core import BudgetExceededError, DescentSet, DomainError, compositions
from multidescent.formulas import (
    binom_poly,
    bounded_sequence_count,
    descent_count,
    last_fixed_formula,
    signed_coarsenings,
    stabilization_point,
    stable_descent_count,
)
from multidescent.oracle import (
    EnumerationBudget,
    count_content,
    count_last_fixed,
    count_naive,
    count_prefix,
)
from multidescent.schur import count_via_jacobi_trudi
from multidescent.verify import descent_sets_up_to


def coarsening_sum(ds, n, last):
    """Independent reference for the closed forms: the explicit signed sum
    over every coarsening of the first differences, binom(n-1+q, q) per
    block sum q and ``last(q)`` for the last block."""
    total = 0
    for sign, sums in signed_coarsenings(ds.first_differences):
        term = sign * last(sums[-1])
        for q in sums[:-1]:
            term *= binom_poly(n - 1 + q, q)
        total += term
    return total


def stable_by_coarsenings(ds, n):
    return coarsening_sum(ds, n, lambda q: binom_poly(n - 1 + q, q) - 1)


def last_fixed_by_coarsenings(ds, n, j):
    return coarsening_sum(ds, n, lambda q: binom_poly(j - 2 + q, q - 1))


def bounded_words_direct(ds, n, m):
    """Independent reference for the bounded sequence count: filter every
    word of length ``largest`` over 1..n directly."""
    length = ds.largest
    drops = set(ds.without_largest.elements)
    total = 0
    for w in product(range(1, n + 1), repeat=length):
        if any(w.count(v) > m for v in set(w)):
            continue
        seen = {i for i in range(1, length) if w[i - 1] > w[i]}
        if seen == drops:
            total += 1
    return total


def test_binom_poly_matches_stdlib_for_nonnegative_arguments():
    for n in range(0, 12):
        for r in range(0, 12):
            assert binom_poly(n, r) == comb(n, r)


def test_binom_poly_at_negative_arguments():
    # the falling factorial n(n-1)...(n-r+1) / r!, read off its definition
    for n in range(-40, 41):
        for r in range(0, 16):
            assert binom_poly(n, r) == prod(range(n, n - r, -1)) // factorial(r)


def test_binom_poly_order_zero_is_one():
    assert binom_poly(5, 0) == 1
    assert binom_poly(-3, 0) == 1
    assert binom_poly(0, 0) == 1


def test_binom_poly_rejects_negative_order():
    with pytest.raises(DomainError):
        binom_poly(4, -1)


def test_signed_coarsenings_known_weights():
    assert list(signed_coarsenings((1, 2, 3))) == [
        (1, (1, 2, 3)),
        (-1, (1, 5)),
        (-1, (3, 3)),
        (1, (6,)),
    ]


@given(st.lists(st.integers(1, 9), min_size=1, max_size=7))
def test_signed_coarsenings_laws(weights):
    terms = list(signed_coarsenings(weights))
    assert len(terms) == 2 ** (len(weights) - 1)
    assert len({sums for _, sums in terms}) == len(terms)
    for sign, sums in terms:
        assert sum(sums) == sum(weights)
        merges = len(weights) - len(sums)
        assert sign == (-1) ** merges


def test_stabilization_point_known_values():
    assert stabilization_point(DescentSet((2,))) == 2
    assert stabilization_point(DescentSet((1, 2, 3))) == 1
    assert stabilization_point(DescentSet((4, 8, 9))) == 7


def test_stabilization_point_needs_a_non_empty_set():
    with pytest.raises(DomainError):
        stabilization_point(DescentSet())


def test_bounded_sequence_count_frozen_values():
    assert bounded_sequence_count(DescentSet((2,)), 3, 2) == 6
    assert bounded_sequence_count(DescentSet((1,)), 2, 1) == 2
    assert bounded_sequence_count(DescentSet((2,)), 1, 2) == 1


def test_bounded_sequence_count_matches_direct_enumeration():
    for ds in descent_sets_up_to(4):
        for n in range(1, 5):
            for m in range(1, 4):
                assert bounded_sequence_count(ds, n, m) == bounded_words_direct(
                    ds, n, m
                ), (ds, n, m)


def test_bounded_count_splits_into_adjacent_descent_counts():
    # the final compared position either drops or does not
    for ds in descent_sets_up_to(4):
        for n in range(ds.largest, ds.largest + 3):
            for m in range(1, 4):
                lhs = bounded_sequence_count(ds, n, m)
                rhs = descent_count(ds, n, m) + descent_count(
                    ds.without_largest, n, m
                )
                assert lhs == rhs, (ds, n, m)


def content_split(ds, n, m):
    """Independent reference for the bounded count: one content walk per
    multiplicity vector, times the ways to choose the values it uses."""
    return sum(
        count_content(parts, ds) * binom_poly(n, len(parts))
        for parts in compositions(ds.largest)
        if max(parts) <= m
    )


def test_bounded_sequence_count_matches_the_content_split():
    for ds in descent_sets_up_to(6):
        for n in range(1, 6):
            for m in range(1, 5):
                assert bounded_sequence_count(ds, n, m) == content_split(
                    ds, n, m
                ), (ds, n, m)


@settings(deadline=None)
@given(
    st.sets(st.integers(1, 9), min_size=1, max_size=6),
    st.integers(1, 7),
    st.integers(1, 5),
)
def test_bounded_sequence_count_matches_the_content_split_randomly(elements, n, m):
    ds = DescentSet(tuple(elements))
    assert bounded_sequence_count(ds, n, m) == content_split(ds, n, m)


def test_bounded_sequence_count_walks_no_content(monkeypatch):
    def refuse(*args):
        raise AssertionError("the insertion DP called a composition or content walk")

    monkeypatch.setattr(formulas, "compositions", refuse)
    monkeypatch.setattr(formulas, "count_content", refuse)
    assert bounded_sequence_count(DescentSet((2,)), 3, 2) == 6


@pytest.mark.parametrize(
    "elements,n,m",
    [((3, 6, 9, 12), 6, 4), ((3, 6, 9, 12), 8, 6), (tuple(range(2, 17, 2)), 18, 2)],
)
def test_descent_count_matches_jacobi_trudi_on_long_words(elements, n, m):
    ds = DescentSet(elements)
    assert descent_count(ds, n, m) == count_via_jacobi_trudi(ds, n, m)


def test_descent_count_reaches_a_descent_at_1100():
    assert descent_count(DescentSet((1100,)), 1200, 1) == comb(1200, 1100) - 1


def test_descent_count_budget_caps_the_dp_transitions():
    tight = EnumerationBudget(max_work=10_000)
    ds = DescentSet(tuple(range(2, 25, 2)))
    with pytest.raises(BudgetExceededError, match="max_work = 10000"):
        descent_count(ds, 26, 2, tight)
    with pytest.raises(BudgetExceededError, match="max_work = 10000"):
        bounded_sequence_count(ds, 26, 2, budget=tight)


def test_descent_count_budget_covers_all_levels_together():
    # the eight levels make 168,098 + 45,869 + ... + 3 = 229,761 transitions
    ds = DescentSet(tuple(range(2, 17, 2)))
    with pytest.raises(BudgetExceededError, match="max_work = 229760"):
        descent_count(ds, 18, 2, EnumerationBudget(max_work=229_760))
    answer = descent_count(ds, 18, 2, EnumerationBudget(max_work=229_761))
    assert answer == count_via_jacobi_trudi(ds, 18, 2)


def test_descent_count_charges_a_transition_the_words_of_its_masks():
    # 8001-bit masks cost 126 a transition, so the refusal comes in well
    # under a second, not after a minute of DP
    start = time.process_time()
    with pytest.raises(BudgetExceededError, match="max_work = 10000000$"):
        descent_count(DescentSet((8000,)), 2, 8000)
    assert time.process_time() - start < 2


def test_descent_count_refusal_threshold_past_one_mask_word():
    # 5,050 transitions on 101-bit masks, two 64-bit words each
    ds = DescentSet((100,))
    expected = count_via_jacobi_trudi(ds, 2, 100)
    assert descent_count(ds, 2, 100, EnumerationBudget(10_100)) == expected
    with pytest.raises(BudgetExceededError, match="max_work = 10099$"):
        descent_count(ds, 2, 100, EnumerationBudget(10_099))


def test_descent_count_known_value():
    assert descent_count(DescentSet((2,)), 3, 2) == 5


def test_descent_count_empty_set_is_one():
    for n in range(1, 5):
        for m in range(1, 4):
            assert descent_count(DescentSet(), n, m) == 1


def test_descent_count_strict_word():
    assert descent_count(DescentSet((1, 2)), 3, 1) == 1


def test_descent_count_matches_enumeration_on_a_small_grid():
    for ds in descent_sets_up_to(3):
        for n in range(1, 4):
            for m in range(1, 4):
                if n * m > 9:
                    continue
                assert descent_count(ds, n, m) == count_naive(ds, n, m), (ds, n, m)


def test_descent_count_zero_without_a_successor_position():
    assert descent_count(DescentSet((4,)), 1, 1) == 0
    assert descent_count(DescentSet((2,)), 1, 2) == 0
    assert descent_count(DescentSet((1, 3)), 3, 1) == 0


def test_descent_count_zero_computes_no_level(monkeypatch):
    def refuse(*args):
        raise AssertionError("a level was computed for a zero count")

    monkeypatch.setattr(formulas, "_insert_values", refuse)
    assert descent_count(DescentSet((1, 9)), 2, 2) == 0


def test_last_fixed_formula_frozen_values():
    assert last_fixed_formula(DescentSet((2,)), 3, 2) == 2
    assert last_fixed_formula(DescentSet((2,)), 3, 1) == 1
    assert last_fixed_formula(DescentSet((1,)), 2, 1) == 1


def test_last_fixed_formula_matches_enumeration():
    for ds in descent_sets_up_to(3):
        for n in range(ds.largest, ds.largest + 4):
            for j in range(1, n + 1):
                assert last_fixed_formula(ds, n, j) == count_last_fixed(
                    ds, n, j
                ), (ds, n, j)


def test_last_fixed_formula_rejects_out_of_range_value():
    with pytest.raises(DomainError):
        last_fixed_formula(DescentSet((2,)), 3, 4)


def test_stable_descent_count_known_values():
    assert stable_descent_count(DescentSet((2,)), 3) == 5
    for n in range(1, 9):
        assert stable_descent_count(DescentSet((1,)), n) == n - 1


def test_stable_descent_count_single_descent_family():
    for a in (*range(1, 7), 40):
        for n in range(1, 11):
            assert stable_descent_count(DescentSet((a,)), n) == comb(
                n + a - 1, a
            ) - 1


def test_stable_descent_count_is_the_plateau_value():
    for ds in descent_sets_up_to(4):
        point = stabilization_point(ds)
        for n in range(ds.largest, ds.largest + 3):
            assert stable_descent_count(ds, n) == count_prefix(ds, n, point), (ds, n)


def test_stable_descent_count_sums_the_last_value_formula():
    for ds in descent_sets_up_to(4):
        for n in range(ds.largest, ds.largest + 3):
            total = sum(last_fixed_formula(ds, n, j) for j in range(2, n + 1))
            assert stable_descent_count(ds, n) == total, (ds, n)


def test_closed_forms_match_the_coarsening_expansion_exhaustively():
    for ds in descent_sets_up_to(8):
        for n in range(-4, 13):
            assert stable_descent_count(ds, n) == stable_by_coarsenings(ds, n), (ds, n)
        for n in range(1, 13):
            for j in range(1, n + 1):
                assert last_fixed_formula(ds, n, j) == last_fixed_by_coarsenings(
                    ds, n, j
                ), (ds, n, j)


@settings(deadline=None)
@given(
    st.sets(st.integers(1, 30), min_size=1, max_size=12),
    st.integers(-10, 40),
    st.data(),
)
def test_closed_forms_match_the_coarsening_expansion(elements, n, data):
    ds = DescentSet(tuple(elements))
    assert stable_descent_count(ds, n) == stable_by_coarsenings(ds, n)
    if n >= 1:
        j = data.draw(st.integers(1, n))
        assert last_fixed_formula(ds, n, j) == last_fixed_by_coarsenings(ds, n, j)


def test_stable_descent_count_evaluates_at_any_integer():
    # degree-2 polynomial for a single descent at 2: binom(n+1, 2) - 1
    ds = DescentSet((2,))
    for n in range(-5, 6):
        assert stable_descent_count(ds, n) == binom_poly(n + 1, 2) - 1


@settings(deadline=None)
@given(
    st.sets(st.integers(1, 14), min_size=1, max_size=14),
    st.integers(-60, 40),
    st.integers(0, 200),
)
def test_stable_run_matches_the_point_evaluator(elements, start, count):
    # starts down to -60 put every row's zero run 1 - q <= n <= 0 inside the
    # run, and counts up to 200 cross several block boundaries
    ds = DescentSet(tuple(elements))
    expected = [stable_descent_count(ds, n) for n in range(start, start + count)]
    assert formulas._stable_run(ds, start, count) == expected


def test_stable_run_needs_a_non_empty_set():
    with pytest.raises(DomainError) as point:
        stable_descent_count(DescentSet(), 3)
    with pytest.raises(DomainError) as run:
        formulas._stable_run(DescentSet(), 3, 5)
    assert str(run.value) == str(point.value)


def test_fixed_multiplicity_count_is_polynomial_in_the_alphabet():
    for ds in descent_sets_up_to(3):
        d = ds.largest
        for m in range(1, 4):
            level = [descent_count(ds, n, m) for n in range(d, 2 * d + 3)]
            for _ in range(d + 1):
                level = [b - a for a, b in zip(level, level[1:])]
            assert all(x == 0 for x in level), (ds, m)
