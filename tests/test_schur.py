"""Ribbon construction, determinant expansion, and monomial extraction."""

import time
from collections import Counter
from itertools import combinations, permutations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multidescent import formulas, schur
from multidescent.core import BudgetExceededError, DescentSet, DomainError
from multidescent.formulas import descent_count
from multidescent.oracle import EnumerationBudget, count_naive, count_prefix
from multidescent.schur import (
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
    lam, mu = shape.outer, shape.inner
    k = len(lam)
    totals = Counter()
    for perm in permutations(range(k)):
        degrees = [lam[i] - mu[perm[i]] - i + perm[i] for i in range(k)]
        if any(d < 0 for d in degrees):
            continue
        inversions = sum(perm[a] > perm[b] for a, b in combinations(range(k), 2))
        totals[tuple(sorted(d for d in degrees if d))] += (-1) ** inversions
    return {key: value for key, value in totals.items() if value}


def test_ribbon_shape_three_descents():
    shape = ribbon_shape(DescentSet((4, 8, 9)), 5, 3)
    assert shape.outer == (12, 7, 7, 4)
    assert shape.inner == (6, 6, 3, 0)
    assert shape.cell_count == 15
    assert shape.row_count == 4
    assert shape.row_lengths == (6, 1, 4, 4)


def test_ribbon_shape_single_descent():
    shape = ribbon_shape(DescentSet((2,)), 3, 2)
    assert shape.outer == (5, 2)
    assert shape.inner == (1, 0)
    assert shape.row_lengths == (4, 2)


def test_ribbon_shape_smallest_case_is_a_vertical_domino():
    shape = ribbon_shape(DescentSet((1,)), 1, 2)
    assert shape.outer == (1, 1)
    assert shape.inner == (0, 0)
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
    lam, mu = shape.outer, shape.inner
    assert len(lam) == len(mu) == k and mu[-1] == 0
    assert all(lam[i] - mu[i] == shape.row_lengths[i] for i in range(k))
    # one-column overlaps force connectivity and forbid any 2x2 block
    for i in range(k - 1):
        assert mu[i] == lam[i + 1] - 1
    # the overlaps restate how inner is derived from outer, so check the
    # cells of outer/inner themselves: n*m of them, one edge-connected
    # piece, and no 2x2 block
    cells = {(r, c) for r in range(k) for c in range(mu[r], lam[r])}
    assert len(cells) == n * m
    assert not any({(r, c + 1), (r + 1, c), (r + 1, c + 1)} <= cells for r, c in cells)
    reached, stack = set(), [min(cells)]
    while stack:
        r, c = stack.pop()
        if (r, c) not in reached:
            reached.add((r, c))
            stack += {(r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)} & cells
    assert reached == cells


def test_ribbon_shape_rejects_broken_overlaps_directly():
    # consecutive rows always share one column, so only a row with no cell
    # (or no row at all) could break the strip apart
    for rows in [(4, 0), (2, -1, 3), ()]:
        with pytest.raises(DomainError):
            RibbonShape(rows)
    for rows in [(2.0, 1), (True,), (3, "1")]:
        with pytest.raises(DomainError, match="must be integers"):
            RibbonShape(rows)


def test_jacobi_trudi_terms_two_rows():
    shape = RibbonShape((4, 2))
    terms = sorted(jacobi_trudi_terms(shape))
    assert terms == [(-1, (6,)), (1, (4, 2))]


def test_jacobi_trudi_terms_vertical_domino():
    shape = RibbonShape((1, 1))
    terms = sorted(jacobi_trudi_terms(shape))
    assert terms == [(-1, (2,)), (1, (1, 1))]


def test_jacobi_trudi_degree_zero_factors_are_dropped():
    shape = RibbonShape((2, 1))
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


def test_count_via_jacobi_trudi_lists_no_terms(monkeypatch):
    def refuse(*args):
        raise AssertionError("the route built a ribbon or listed coarsenings")

    for owner, name in [
        (schur, "ribbon_shape"),
        (schur, "jacobi_trudi_terms"),
        (schur, "signed_coarsenings"),
        (formulas, "compositions"),
    ]:
        monkeypatch.setattr(owner, name, refuse)
    assert count_via_jacobi_trudi(DescentSet((2, 4)), 3, 3) == 16


@pytest.mark.parametrize("m", [1, 3])
def test_count_via_jacobi_trudi_at_a_huge_alphabet(m):
    # n enters only through binomials, so no loop runs over the columns
    ds, n = DescentSet((5,)), 99999999999
    value = count_via_jacobi_trudi(ds, n, m)
    assert value == descent_count(ds, n, m)
    if m == 1:
        assert value == comb(n, 5) - 1


def test_count_via_jacobi_trudi_charges_its_placements():
    ds = DescentSet(tuple(range(3, 25, 3)))
    with pytest.raises(BudgetExceededError, match="max_work = 10000"):
        count_via_jacobi_trudi(ds, 10, 4, EnumerationBudget(10_000))


def test_count_via_jacobi_trudi_stops_inside_one_state(monkeypatch):
    # the empty state alone places 60 units in p(60) = 966,467 ways, so the
    # route must stop mid-state; count the frames through their weights
    calls = []
    monkeypatch.setattr(schur, "comb", lambda *args: calls.append(args) or comb(*args))
    with pytest.raises(BudgetExceededError, match="max_work = 1000"):
        count_via_jacobi_trudi(DescentSet((60,)), 60, 60, EnumerationBudget(1000))
    assert len(calls) < 100_000


def test_count_via_jacobi_trudi_skips_increments_that_cannot_fit():
    # two columns of cap 10001 share 10^4 units: an increment that leaves the
    # other column more than it can take places nothing, and the placement
    # loop once scanned every such increment of every frame, O(10^8) steps.
    # The 10^4 words are fixed by the number of 1s before the descent.
    ds = DescentSet((10_000,))
    start = time.process_time()
    assert count_via_jacobi_trudi(ds, 2, 10_001) == 10_000
    assert time.process_time() - start < 2
    # one placement per fill multiset: {10^4} and {j, 10^4 - j}, j <= 5000
    assert count_via_jacobi_trudi(ds, 2, 10_001, EnumerationBudget(5001)) == 10_000
    with pytest.raises(BudgetExceededError, match="max_work = 5000"):
        count_via_jacobi_trudi(ds, 2, 10_001, EnumerationBudget(5000))


@pytest.mark.parametrize(
    "elements, n, m, placements, value",
    [
        ((1, 3, 5, 6, 7, 8, 9), 6, 2, 180, 75),
        ((2, 4, 6, 8, 10, 11, 12), 8, 2, 338, 6108992),
        (tuple(range(2, 25, 2)), 20, 2, 5067, 10641693185262018213718144),
        ((6, 12, 18, 24), 30, 3, 12563, 4301259300030116136871341),
        ((2, 4), 3, 3, 12, 16),
    ],
)
def test_count_via_jacobi_trudi_charges_each_placement_once(
    elements, n, m, placements, value
):
    # the whole chain places exactly this many rows: a budget of that many
    # answers, one fewer is refused, whatever order the chain places them in
    ds = DescentSet(elements)
    assert count_via_jacobi_trudi(ds, n, m, EnumerationBudget(placements)) == value
    refusal = f"Jacobi-Trudi placements, more than max_work = {placements - 1}$"
    with pytest.raises(BudgetExceededError, match=refusal):
        count_via_jacobi_trudi(ds, n, m, EnumerationBudget(placements - 1))


def test_count_via_jacobi_trudi_keeps_its_stack_small(run_under_address_limit):
    # two columns share 10^6 units in 5 * 10^5 + 1 ways; a stack holding
    # every increment of a class at once needed more than 250 MB of address
    # space.  These placements all reach the chain's last end, which is
    # summed, not stored, so the search now holds no state at all
    code, out, err = run_under_address_limit(
        200, "schur.count_via_jacobi_trudi(DescentSet((10**6,)), 2, 10**6)"
    )
    assert code == 0, err
    assert out.split() == [str(10**6)]


def test_count_via_jacobi_trudi_stores_no_state_of_its_last_end(
    run_under_address_limit,
):
    # a single descent places only into the last end, whose placements are
    # summed: the 5 * 10^5 states it reaches once took about 121 MB
    code, out, err = run_under_address_limit(
        64, "schur.count_via_jacobi_trudi(DescentSet((10**6,)), 2, 10**6)"
    )
    assert code == 0, err
    assert out.split() == [str(10**6)]


def test_count_via_jacobi_trudi_charges_wide_keys_instead_of_running_out(
    run_under_address_limit,
):
    # two columns of cap 10^6: each of the ~5 * 10^5 states of the end at
    # 10^6 holds a fill of at least 5 * 10^5, a key of 10^6 bits or more,
    # so stored uncharged they would take tens of GB; charged by their
    # extra words the chain is refused long before that
    code, out, err = run_under_address_limit(
        160, "schur.count_via_jacobi_trudi(DescentSet((10**6, 10**6 + 1)), 2, 10**6)"
    )
    assert code == 0, err
    assert out.startswith(("refused: Jacobi-Trudi placements", "0\n")), out


@pytest.mark.parametrize(
    "n", [1, 2, 3, 4, 7, 8, 15, 16, 2**37 - 1, 2**37]
)
def test_count_via_jacobi_trudi_at_the_digit_width_edges(n):
    # a digit of the packed state is n.bit_length() bits wide, so it changes
    # width just above n = 2^j - 1; at n near 2^37 a state of fill 3 or 4
    # no longer fits one 64-bit word
    for elements in [(1,), (3,), (2, 3), (1, 3, 4), (2, 4, 6), (1, 2, 3, 4, 5)]:
        ds = DescentSet(elements)
        for m in range(1, 5):
            assert count_via_jacobi_trudi(ds, n, m) == descent_count(ds, n, m), (
                elements, n, m
            )


def test_count_via_jacobi_trudi_charges_the_extra_words_of_a_state():
    # 61 placements, and at n = 10^11 - 1 (37-bit digits) the stored state
    # holding one column of fill 3 is a 75-bit key: one extra unit
    ds, n = DescentSet((2, 4, 6)), 99999999999
    value = count_via_jacobi_trudi(ds, n, 3, EnumerationBudget(62))
    assert value == descent_count(ds, n, 3)
    with pytest.raises(BudgetExceededError, match="max_work = 61$"):
        count_via_jacobi_trudi(ds, n, 3, EnumerationBudget(61))


def test_rect_coeff_charges_the_default_budget(monkeypatch):
    monkeypatch.setattr(schur, "DEFAULT_BUDGET", EnumerationBudget(2))
    with pytest.raises(BudgetExceededError, match="max_work = 2"):
        rect_coeff([2, 2, 2], 3, 2)


def test_count_via_jacobi_trudi_sums_the_expanded_determinant():
    # the route never lists the terms; the public expansion must agree
    sets = [
        DescentSet(c)
        for size in range(1, 7)
        for c in combinations(range(1, 7), size)
    ]
    points = 0
    for ds in sets:
        for n in range(1, 6):
            for m in range(1, 5):
                if n * m <= ds.largest:
                    continue
                terms = jacobi_trudi_terms(ribbon_shape(ds, n, m))
                expanded = sum(sign * rect_coeff(deg, n, m) for sign, deg in terms)
                assert count_via_jacobi_trudi(ds, n, m) == expanded, (ds, n, m)
                points += 1
    assert points == 673


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
