"""Binomial-base coefficients: extraction, shifting, and the sign laws."""

from itertools import combinations

import pytest

from multidescent.core import DescentSet, DomainError
from multidescent.formulas import stable_descent_count
from multidescent.oracle import count_coeff_witnesses
from multidescent.polybasis import (
    BinomialBasisPoly,
    Check,
    Report,
    check_prefix_signs,
    check_window,
    extract_coeffs,
    shift_basis,
    sign_survey,
)


def _sets_within(top):
    out = []
    for size in range(1, top + 1):
        out.extend(DescentSet(c) for c in combinations(range(1, top + 1), size))
    return out


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
    for ds in _sets_within(4):
        for k in (-2, -1, 0, 1):
            poly = extract_coeffs(ds, k)
            for n in range(-2, ds.largest + 5):
                assert poly.evaluate(n) == stable_descent_count(ds, n), (ds, k, n)


def test_extracted_degree_and_leading_coefficient():
    for ds in _sets_within(4):
        poly = extract_coeffs(ds, -1)
        assert poly.degree == ds.largest
        assert poly.coefficient(ds.largest) >= 1


def test_offset_minus_one_coefficients_count_witness_words():
    for ds in _sets_within(4):
        poly = extract_coeffs(ds, -1)
        for i in range(ds.largest + 1):
            assert poly.coefficient(i) == count_coeff_witnesses(ds, i), (ds, i)


def test_extract_coeffs_reaches_twenty_five_descents():
    # 2**24 coarsenings: the closed form must not walk them one by one
    ds = DescentSet(tuple(range(1, 50, 2)))
    poly = extract_coeffs(ds, -1)  # raises unless its own re-check passes
    assert poly.degree == 49
    assert stable_descent_count(ds, 60) == poly.evaluate(60)


def test_shift_basis_known_step():
    base = BinomialBasisPoly(-1, (0, 2, 1))
    assert shift_basis(base, 0).coeffs == (-1, 1, 1)
    assert shift_basis(base, -2).coeffs == (2, 3, 1)
    assert shift_basis(base, -1) is not base
    assert shift_basis(base, -1).coeffs == base.coeffs


def test_shift_basis_round_trips_exactly():
    for ds in _sets_within(4):
        base = extract_coeffs(ds, -1)
        for k in range(-3, 4):
            shifted = shift_basis(base, k)
            assert shift_basis(shift_basis(shifted, k + 1), k) == shifted
            assert shift_basis(shift_basis(shifted, k - 1), k) == shifted


def test_shift_basis_agrees_with_direct_extraction():
    for ds in _sets_within(4):
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


def test_check_window_passes_and_is_structured():
    report = check_window(DescentSet((2, 4)))
    assert isinstance(report, Report)
    assert report.passed
    assert report.failures == ()
    assert all(isinstance(c, Check) for c in report.checks)
    # one degree check, plus a window claim and a witness claim per index
    assert len(report.checks) == 1 + 2 * 5


def test_check_window_single_element_set():
    report = check_window(DescentSet((1,)))
    assert report.passed
    poly = extract_coeffs(DescentSet((1,)), -1)
    assert poly.coeffs == (0, 1)


def test_window_positivity_and_support():
    for ds in _sets_within(5):
        poly = extract_coeffs(ds, -1)
        low = ds.longest_run
        for i in range(ds.largest + 1):
            value = poly.coefficient(i)
            if low <= i <= ds.largest:
                assert value >= 1, (ds, i)
            else:
                assert value == 0, (ds, i)


def test_check_prefix_signs_passes():
    for ds in (DescentSet((2,)), DescentSet((1, 2)), DescentSet((2, 4))):
        report = check_prefix_signs(ds)
        assert report.passed, report.failures


def test_prefix_sign_values_two_element_run():
    # size-2 set: signs start positive and alternate through the run
    poly = extract_coeffs(DescentSet((1, 2)), 0)
    assert poly.coeffs == (1, -1, 1)


def test_sign_survey_passes_across_offsets():
    for ds in _sets_within(4):
        report = sign_survey(ds, -3, 2)
        assert report.passed, (ds, report.failures)
        assert len(report.checks) == 6


def test_sign_survey_rejects_an_empty_range():
    with pytest.raises(DomainError):
        sign_survey(DescentSet((2,)), 1, 0)


def test_failing_check_is_reported_not_raised():
    report = Report("demo", (Check("always wrong", 1, 2),))
    assert not report.passed
    assert report.failures[0].claim == "always wrong"
