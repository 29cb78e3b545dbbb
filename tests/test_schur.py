"""Ribbon construction, determinant expansion, and monomial extraction."""

from collections import Counter
from itertools import combinations, permutations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multidescent.core import DescentSet, DomainError
from multidescent.formulas import descent_count
from multidescent.oracle import count_naive, count_prefix
from multidescent.schur import (
    Partition,
    RibbonShape,
    count_via_jacobi_trudi,
    jacobi_trudi_terms,
    rect_coeff,
    ribbon_shape,
)


def matrices_direct(row_sums, n, m):
    """Independent reference for rect_coeff: enumerate candidate matrices
    row by row and keep those whose columns each sum to m."""
    rows = []
    for target in row_sums:
        rows.append(
            [r for r in product(range(m + 1), repeat=n) if sum(r) == target]
        )
    count = 0
    for choice in product(*rows):
        if all(sum(col) == m for col in zip(*choice)):
            count += 1
    return count


def permutation_terms(shape):
    """Independent witness for the determinant: expand
    det[h(outer_i - inner_j - i + j)] over every permutation, dropping terms
    with a negative degree and degree-zero factors, and total the signs per
    sorted degree multiset."""
    lam = shape.outer.parts
    k = len(lam)
    mu = shape.inner.padded(k)
    totals = Counter()
    for perm in permutations(range(k)):
        degrees = [lam[i] - mu[perm[i]] - i + perm[i] for i in range(k)]
        if any(d < 0 for d in degrees):
            continue
        inversions = sum(perm[a] > perm[b] for a, b in combinations(range(k), 2))
        totals[tuple(sorted(d for d in degrees if d))] += (-1) ** inversions
    return {key: value for key, value in totals.items() if value}


def test_partition_trims_trailing_zeros():
    assert Partition((5, 2, 0, 0)).parts == (5, 2)
    assert Partition(()).parts == ()
    assert Partition((3,)).padded(3) == (3, 0, 0)


def test_partition_rejects_bad_parts():
    with pytest.raises(DomainError):
        Partition((2, 3))
    with pytest.raises(DomainError):
        Partition((3, -1))


@pytest.mark.parametrize("parts", [(2.9, 1.2), (True,), (3, "1")])
def test_partition_rejects_non_int_parts(parts):
    with pytest.raises(DomainError):
        Partition(parts)


def test_ribbon_shape_three_descents():
    shape = ribbon_shape(DescentSet((4, 8, 9)), 5, 3)
    assert shape.outer.parts == (12, 7, 7, 4)
    assert shape.inner.padded(4) == (6, 6, 3, 0)
    assert shape.cell_count == 15
    assert shape.row_count == 4
    assert shape.row_lengths == (6, 1, 4, 4)


def test_ribbon_shape_single_descent():
    shape = ribbon_shape(DescentSet((2,)), 3, 2)
    assert shape.outer.parts == (5, 2)
    assert shape.inner.padded(2) == (1, 0)
    assert shape.row_lengths == (4, 2)


def test_ribbon_shape_smallest_case_is_a_vertical_domino():
    shape = ribbon_shape(DescentSet((1,)), 1, 2)
    assert shape.outer.parts == (1, 1)
    assert shape.inner.parts == ()
    assert shape.cell_count == 2
    assert shape.row_lengths == (1, 1)


def test_ribbon_shape_needs_room_for_the_top_row():
    with pytest.raises(DomainError):
        ribbon_shape(DescentSet((4,)), 2, 2)
    with pytest.raises(DomainError):
        ribbon_shape(DescentSet((2,)), 1, 2)
    with pytest.raises(DomainError):
        ribbon_shape(DescentSet(), 3, 2)


@given(
    st.sets(st.integers(1, 8), min_size=1, max_size=4),
    st.integers(1, 4),
    st.integers(1, 4),
)
@settings(max_examples=120)
def test_ribbon_shape_structural_laws(elements, n, m):
    ds = DescentSet(elements)
    if n * m <= ds.largest:
        with pytest.raises(DomainError):
            ribbon_shape(ds, n, m)
        return
    shape = ribbon_shape(ds, n, m)
    k = shape.row_count
    assert k == len(ds) + 1
    assert shape.cell_count == n * m
    assert shape.row_lengths[0] == n * m - ds.largest
    assert shape.row_lengths[1:] == tuple(reversed(ds.first_differences))
    lam = shape.outer.parts
    mu = shape.inner.padded(k)
    # one-column overlaps force connectivity and forbid any 2x2 block
    for i in range(k - 1):
        assert mu[i] == lam[i + 1] - 1


def test_ribbon_shape_rejects_broken_overlaps_directly():
    with pytest.raises(DomainError):
        RibbonShape(Partition((4, 2)), Partition((2,)))
    with pytest.raises(DomainError):
        RibbonShape(Partition((4, 2)), Partition((4,)))


def test_jacobi_trudi_terms_two_rows():
    shape = RibbonShape(Partition((5, 2)), Partition((1,)))
    terms = sorted(jacobi_trudi_terms(shape))
    assert terms == [(-1, (6,)), (1, (4, 2))]


def test_jacobi_trudi_terms_vertical_domino():
    shape = RibbonShape(Partition((1, 1)), Partition(()))
    terms = sorted(jacobi_trudi_terms(shape))
    assert terms == [(-1, (2,)), (1, (1, 1))]


def test_jacobi_trudi_degree_zero_factors_are_dropped():
    shape = RibbonShape(Partition((2, 1)), Partition(()))
    terms = {degrees: sign for sign, degrees in jacobi_trudi_terms(shape)}
    assert terms == {(2, 1): 1, (3,): -1}


def test_jacobi_trudi_terms_preserve_total_degree():
    shape = ribbon_shape(DescentSet((2, 4)), 3, 2)
    for sign, degrees in jacobi_trudi_terms(shape):
        assert sum(degrees) == 6
        assert sign in (-1, 1)


def test_jacobi_trudi_terms_match_the_permutation_expansion():
    shapes = 0
    for top in range(1, 7):
        for size in range(1, top + 1):
            for inner in combinations(range(1, top), size - 1):
                ds = DescentSet(inner + (top,))
                for head in (1, 2, 4):
                    shape = ribbon_shape(ds, head + top, 1)
                    terms = list(jacobi_trudi_terms(shape))
                    totals = Counter()
                    for sign, degrees in terms:
                        totals[tuple(sorted(degrees))] += sign
                    assert dict(totals) == permutation_terms(shape), (ds, head)
                    assert len(terms) == 2 ** (shape.row_count - 1)
                    shapes += 1
    assert shapes == 3 * 63


def test_rect_coeff_frozen_values():
    assert rect_coeff([4, 2], 3, 2) == 6
    assert rect_coeff([6], 3, 2) == 1
    assert rect_coeff([1, 1], 2, 1) == 2


def test_rect_coeff_matches_direct_matrix_enumeration():
    cases = [
        ((4, 2), 3, 2),
        ((2, 2, 2), 3, 2),
        ((3, 1), 2, 2),
        ((1, 1, 1, 1), 4, 1),
        ((3, 3, 2), 4, 2),
        ((1, 1, 2, 2), 3, 2),
        ((2, 2, 2, 2), 4, 2),
        ((3, 3, 3), 3, 3),
        ((1, 4, 1), 3, 2),
        ((2, 0, 2, 2), 2, 3),
        ((5, 1), 2, 3),
    ]
    for row_sums, n, m in cases:
        assert rect_coeff(row_sums, n, m) == matrices_direct(row_sums, n, m)


def test_rect_coeff_zero_on_degree_mismatch():
    assert rect_coeff([4, 3], 3, 2) == 0
    assert rect_coeff([], 2, 2) == 0


def test_rect_coeff_single_row():
    assert rect_coeff([8], 4, 2) == 1
    assert rect_coeff([7], 4, 2) == 0


def test_rect_coeff_rejects_negative_degrees():
    with pytest.raises(DomainError):
        rect_coeff([3, -1], 2, 1)


@pytest.mark.parametrize("degrees", [(4.9, 2), ("4", 2), (True, 5)])
def test_rect_coeff_rejects_non_int_degrees(degrees):
    with pytest.raises(DomainError):
        rect_coeff(degrees, 3, 2)


@given(
    st.lists(st.integers(0, 4), min_size=1, max_size=4),
    st.integers(1, 3),
    st.integers(1, 3),
)
@settings(max_examples=80)
def test_rect_coeff_is_symmetric_in_the_degrees(degrees, n, m):
    value = rect_coeff(degrees, n, m)
    assert value == rect_coeff(list(reversed(degrees)), n, m)
    assert value == rect_coeff(sorted(degrees), n, m)


def test_count_via_jacobi_trudi_known_value():
    assert count_via_jacobi_trudi(DescentSet((2,)), 3, 2) == 5


def test_count_via_jacobi_trudi_matches_enumeration():
    from itertools import combinations

    sets = [
        DescentSet(c)
        for size in range(1, 4)
        for c in combinations(range(1, 5), size)
    ]
    for ds in sets:
        for n in range(1, 4):
            for m in range(1, 4):
                if n * m <= ds.largest or n * m > 9:
                    continue
                assert count_via_jacobi_trudi(ds, n, m) == count_naive(
                    ds, n, m
                ), (ds, n, m)


@pytest.mark.parametrize("a", [1, 2, 3])
def test_count_via_jacobi_trudi_has_no_recursion_ceiling(a):
    # one descent at a among 1200 distinct letters: choose the first a
    # letters, minus the one choice that leaves the word sorted
    assert count_via_jacobi_trudi(DescentSet((a,)), 1200, 1) == comb(1200, a) - 1


@given(
    st.sets(st.integers(1, 7), min_size=1),
    st.integers(1, 16).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, 16 // n))),
)
@settings(max_examples=60, deadline=None)
def test_count_via_jacobi_trudi_agrees_with_the_walks(elements, size):
    # n*m <= max(I) included: every route answers that corner with 0
    n, m = size
    ds = DescentSet(elements)
    value = count_via_jacobi_trudi(ds, n, m)
    assert value == count_prefix(ds, n, m) == descent_count(ds, n, m)
    if n * m <= 8:
        assert value == count_naive(ds, n, m)
