"""Binomial-base coefficients: extraction, shifting, and the sign laws."""

import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multidescent import formulas, polybasis
from multidescent.core import (
    BudgetExceededError,
    ConsistencyError,
    DescentSet,
    DomainError,
)
from multidescent.formulas import binom_poly, stable_descent_count
from multidescent.oracle import count_coeff_witnesses
from multidescent.polybasis import BinomialBasisPoly, extract_coeffs, shift_basis
from multidescent.verify import descent_sets_up_to


def test_poly_trims_trailing_zero_coefficients():
    poly = BinomialBasisPoly(-1, (0, 2, 1, 0, 0))
    assert poly.coeffs == (0, 2, 1)
    assert poly.degree == 2
    assert poly.coefficient(4) == 0
    assert BinomialBasisPoly(0, (0, 0)).coeffs == ()


@pytest.mark.parametrize(
    "offset, coeffs",
    [(0, (1.7, True, "3")), (0, (2, 1.0)), (-1.5, (1, 2)), (True, (1,)), ("0", ())],
)
def test_poly_rejects_non_int_offset_and_coefficients(offset, coeffs):
    with pytest.raises(DomainError):
        BinomialBasisPoly(offset, coeffs)


def test_poly_evaluate():
    poly = BinomialBasisPoly(-1, (0, 2, 1))  # 2*binom(n-1,1) + binom(n-1,2)
    assert [poly.evaluate(n) for n in range(1, 6)] == [0, 2, 5, 9, 14]


def test_poly_evaluate_steps_the_binomial_along_the_sum():
    # evaluate once called binom_poly per coefficient, so evaluating a
    # degree-d poly at d points made O(d^2) comb calls, each of size up to d
    start = time.process_time()
    poly = extract_coeffs(DescentSet((600,)), -1)
    assert time.process_time() - start < 3
    assert poly.degree == 600
    # the stabilized single-descent count is binom(n + a - 1, a) - 1, and
    # every n <= 0 puts the base binom(n - 1, i) at a negative point
    for n in (-1500, -601, -600, -599, -1, 0, 1, 2, 700):
        assert poly.evaluate(n) == binom_poly(n + 599, 600) - 1, n


def test_extract_coeffs_frozen_values():
    assert extract_coeffs(DescentSet((2,)), -1).coeffs == (0, 2, 1)
    assert extract_coeffs(DescentSet((2,)), 0).coeffs == (-1, 1, 1)
    assert extract_coeffs(DescentSet((1,)), 0).coeffs == (-1, 1)


def test_extract_coeffs_triple_run_concentrates_at_the_top():
    assert extract_coeffs(DescentSet((1, 2, 3)), -1).coeffs == (0, 0, 0, 1)


def test_extract_coeffs_needs_a_non_empty_set():
    with pytest.raises(DomainError):
        extract_coeffs(DescentSet(), -1)


def test_extracted_polys_reproduce_the_stabilized_count():
    for ds in descent_sets_up_to(4):
        for k in (-2, -1, 0, 1):
            poly = extract_coeffs(ds, k)
            for n in range(-2, ds.largest + 5):
                assert poly.evaluate(n) == stable_descent_count(ds, n), (ds, k, n)


def test_extracted_degree_and_leading_coefficient():
    for ds in descent_sets_up_to(4):
        poly = extract_coeffs(ds, -1)
        assert poly.degree == ds.largest
        assert poly.coefficient(ds.largest) >= 1


def test_offset_minus_one_coefficients_count_witness_words():
    for ds in descent_sets_up_to(4):
        poly = extract_coeffs(ds, -1)
        for i in range(ds.largest + 1):
            assert poly.coefficient(i) == count_coeff_witnesses(ds, i), (ds, i)


def test_extract_coeffs_reaches_twenty_five_descents():
    # 2**24 coarsenings: the closed form must not walk them one by one
    ds = DescentSet(tuple(range(1, 50, 2)))
    poly = extract_coeffs(ds, -1)  # raises unless its own re-check passes
    assert poly.degree == 49
    assert stable_descent_count(ds, 60) == poly.evaluate(60)


@pytest.mark.parametrize(
    "j, raises",
    [(0, True), (3, True), (5, True), (6, True), (9, True), (11, True),
     (-1, False), (12, False)],
)
def test_extract_coeffs_raises_when_one_read_sample_is_off(monkeypatch, j, raises):
    # {2, 4} has degree 4, so extraction at offset -1 reads the samples at
    # n = 1 + j for j in 0..11, the first 6 giving the coefficients: a bump
    # among any of the 12 leaves them off every degree-4 polynomial
    ds, offset = DescentSet((2, 4)), -1
    expected = extract_coeffs(ds, offset)
    bumped = -offset + j

    def off_by_one(descents, start, count):
        run = formulas._stable_run(descents, start, count)
        return [v + (n == bumped) for n, v in enumerate(run, start)]

    monkeypatch.setattr(polybasis, "_stable_run", off_by_one)
    if raises:
        with pytest.raises(ConsistencyError, match=r"\{2,4\}"):
            extract_coeffs(ds, offset)
    else:
        assert extract_coeffs(ds, offset) == expected


def test_extract_coeffs_refuses_a_single_descent_past_2579(monkeypatch):
    # (2d + 4) closed-form products and 3(d + 1)(d + 2)/2 subtractions are
    # charged before any sample: 9,993,632 at d = 2579, 10,001,377 at 2580
    class Sampled(Exception):
        pass

    def sample(descents, start, count):
        raise Sampled

    monkeypatch.setattr(polybasis, "_stable_run", sample)
    with pytest.raises(Sampled):
        extract_coeffs(DescentSet((2579,)), -1)
    with pytest.raises(BudgetExceededError) as refused:
        extract_coeffs(DescentSet((2580,)), -1)
    assert str(refused.value) == (
        "coefficients at |I| = 1, max(I) = 2580, more than max_work = 10000000"
    )


def test_extract_coeffs_samples_in_bounded_memory():
    # the run evaluator keeps one block of rows alive, not a row of all
    # 2 * 210 + 4 samples for each of the ~200 distinct block sums
    ds = DescentSet(tuple(i * (i + 1) // 2 for i in range(1, 21)))
    tracemalloc.start()
    try:
        extract_coeffs(ds, -1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@settings(deadline=None)
@given(
    st.sets(st.integers(1, 40), min_size=1, max_size=10),
    st.integers(-5, 5),
)
def test_extract_coeffs_agrees_with_the_shifted_base_at_larger_degrees(elements, k):
    ds = DescentSet(tuple(sorted(elements)))
    base = extract_coeffs(ds, -1)
    assert extract_coeffs(ds, k) == shift_basis(base, k)
    for n in (-7, 0, ds.largest, 3 * ds.largest + 11):
        assert base.evaluate(n) == stable_descent_count(ds, n), n


def test_shift_basis_known_step():
    base = BinomialBasisPoly(-1, (0, 2, 1))
    assert shift_basis(base, 0).coeffs == (-1, 1, 1)
    assert shift_basis(base, -2).coeffs == (2, 3, 1)
    assert shift_basis(base, -1) is not base
    assert shift_basis(base, -1).coeffs == base.coeffs


def test_shift_basis_round_trips_exactly():
    for ds in descent_sets_up_to(4):
        base = extract_coeffs(ds, -1)
        for k in range(-3, 4):
            shifted = shift_basis(base, k)
            assert shift_basis(shift_basis(shifted, k + 1), k) == shifted
            assert shift_basis(shift_basis(shifted, k - 1), k) == shifted


def test_shift_basis_to_a_huge_offset_and_back():
    # stepping one offset at a time would take minutes to reach 10**9
    base = extract_coeffs(DescentSet((2, 4, 5)), -1)
    far = shift_basis(base, 10**9)
    assert far.evaluate(7) == base.evaluate(7)
    assert shift_basis(far, -1) == base


def test_shift_basis_agrees_with_direct_extraction():
    for ds in descent_sets_up_to(4):
        base = extract_coeffs(ds, -1)
        for k in range(-3, 4):
            assert shift_basis(base, k).coeffs == extract_coeffs(ds, k).coeffs, (
                ds,
                k,
            )


def test_shift_preserves_evaluation():
    base = extract_coeffs(DescentSet((2, 4)), -1)
    for k in range(-3, 4):
        shifted = shift_basis(base, k)
        for n in range(-3, 9):
            assert shifted.evaluate(n) == base.evaluate(n)


def test_window_positivity_and_support():
    for ds in descent_sets_up_to(5):
        poly = extract_coeffs(ds, -1)
        low = ds.longest_run
        for i in range(ds.largest + 1):
            value = poly.coefficient(i)
            if low <= i <= ds.largest:
                assert value >= 1, (ds, i)
            else:
                assert value == 0, (ds, i)


def test_prefix_sign_values_two_element_run():
    # size-2 set: signs start positive and alternate through the run
    poly = extract_coeffs(DescentSet((1, 2)), 0)
    assert poly.coeffs == (1, -1, 1)
