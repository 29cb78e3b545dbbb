"""Descent sets, compositions, and block sums."""

from inspect import signature

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multidescent import formulas, oracle, polybasis, schur, verify
from multidescent.core import (
    DescentSet,
    DomainError,
    block_sums,
    compositions,
    descent_set,
)


def test_descent_set_of_known_word():
    assert descent_set((1, 3, 2, 6, 1, 1, 9, 3)).elements == (2, 4, 7)


def test_descent_set_sorted_word_is_empty():
    assert descent_set((1, 1, 2, 3)).elements == ()
    assert not descent_set((5,))


def test_descent_set_strictly_decreasing_word():
    assert descent_set((4, 3, 2, 1)).elements == (1, 2, 3)


def test_descent_set_of_empty_word_rejected():
    with pytest.raises(DomainError):
        descent_set(())


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=12))
def test_descent_positions_lie_between_adjacent_pairs(values):
    ds = descent_set(values)
    for pos in ds:
        assert 1 <= pos <= len(values) - 1
        assert values[pos - 1] > values[pos]
    for pos in range(1, len(values)):
        if pos not in ds:
            assert values[pos - 1] <= values[pos]


def test_descent_set_normalizes_and_deduplicates():
    assert DescentSet((5, 2, 2, 4)).elements == (2, 4, 5)
    assert DescentSet([3]) == DescentSet((3,))


def test_descent_set_rejects_nonpositive_positions():
    with pytest.raises(DomainError):
        DescentSet((0, 2))
    with pytest.raises(DomainError):
        DescentSet((-1,))


@pytest.mark.parametrize("elements", [(2.7, True), ("3",), (True,), (2, 3.0)])
def test_descent_set_rejects_non_int_elements(elements):
    with pytest.raises(DomainError):
        DescentSet(elements)


def test_descent_set_str():
    assert str(DescentSet((2, 4, 5))) == "{2,4,5}"
    assert str(DescentSet()) == "{}"


def test_largest_and_without_largest():
    ds = DescentSet((2, 4, 5))
    assert ds.largest == 5
    assert ds.without_largest == DescentSet((2, 4))
    assert DescentSet((3,)).without_largest == DescentSet()


def test_empty_set_has_no_largest():
    with pytest.raises(DomainError):
        DescentSet().largest
    with pytest.raises(DomainError):
        DescentSet().without_largest


EMPTY = DescentSet()
NEEDS_A_DESCENT = {
    "stabilization_point": lambda: formulas.stabilization_point(EMPTY),
    "bounded_sequence_count": lambda: formulas.bounded_sequence_count(EMPTY, 3, 2),
    "last_fixed_formula": lambda: formulas.last_fixed_formula(EMPTY, 3, 2),
    "stable_descent_count": lambda: formulas.stable_descent_count(EMPTY, 3),
    "count_content": lambda: oracle.count_content((1,), EMPTY),
    "count_last_fixed": lambda: oracle.count_last_fixed(EMPTY, 3, 2),
    "count_coeff_witnesses": lambda: oracle.count_coeff_witnesses(EMPTY, 1),
    "count_onto_upper": lambda: oracle.count_onto_upper(EMPTY, 1),
    "count_onto_full": lambda: oracle.count_onto_full(EMPTY, 1),
    "extract_coeffs": lambda: polybasis.extract_coeffs(EMPTY, -1),
    "ribbon_shape": lambda: schur.ribbon_shape(EMPTY, 3, 2),
}


@pytest.mark.parametrize("name", NEEDS_A_DESCENT)
def test_functions_needing_a_descent_reject_the_empty_set(name):
    # the one empty-set check is the one in DescentSet.largest
    with pytest.raises(DomainError, match="has no largest element"):
        NEEDS_A_DESCENT[name]()


TWO = DescentSet((2,))
POLY = polybasis.BinomialBasisPoly(-1, (0, 1, 1))

# (function, its first argument, valid values of the int arguments after it)
TAKES_INTS = {
    "count_naive": (oracle.count_naive, TWO, 3, 2),
    "count_prefix": (oracle.count_prefix, TWO, 3, 2),
    "descent_count": (formulas.descent_count, TWO, 3, 2),
    "count_via_jacobi_trudi": (schur.count_via_jacobi_trudi, TWO, 3, 2),
    "bounded_sequence_count": (formulas.bounded_sequence_count, TWO, 3, 2),
    "last_fixed_formula": (formulas.last_fixed_formula, TWO, 3, 2),
    "count_last_fixed": (oracle.count_last_fixed, TWO, 3, 2),
    "stable_descent_count": (formulas.stable_descent_count, TWO, 3),
    "extract_coeffs": (polybasis.extract_coeffs, TWO, 0),
    "shift_basis": (polybasis.shift_basis, POLY, 0),
    "coefficient": (polybasis.BinomialBasisPoly.coefficient, POLY, 1),
    "evaluate": (polybasis.BinomialBasisPoly.evaluate, POLY, 3),
}


@pytest.mark.parametrize("bad", [3.0, 2.5, True, "3"], ids=repr)
@pytest.mark.parametrize("name", TAKES_INTS)
def test_int_arguments_are_never_coerced(name, bad):
    # 2.0 for m once counted as 2, True as 1, and "3" ended in a TypeError
    function, first, *good = TAKES_INTS[name]
    for slot in range(len(good)):
        args = list(good)
        args[slot] = bad
        with pytest.raises(DomainError, match=f"must be integers, got {bad!r}"):
            function(first, *args)


# (function, valid values of its int arguments by name); a generator is
# drained so that its check runs, and every verify report takes only grid
# bounds, all valid at 1
TAKES_NAMED_INTS = {
    "binom_poly": (formulas.binom_poly, dict(n=3, r=2)),
    "compositions": (lambda total: list(compositions(total)), dict(total=3)),
    **{
        report.__name__: (report, dict.fromkeys(signature(report).parameters, 1))
        for report, _ in verify._SUITE
    },
}


@pytest.mark.parametrize("bad", [2.5, True], ids=repr)
@pytest.mark.parametrize("name", TAKES_NAMED_INTS)
def test_named_int_arguments_are_never_coerced(name, bad):
    # binom_poly(3, 2.0) and sign_survey_report(top=2.5) once ended in a
    # TypeError, and polynomiality_report(top=True) ran with 1
    function, good = TAKES_NAMED_INTS[name]
    for key in good:
        with pytest.raises(DomainError, match=f"must be integers, got {bad!r}"):
            function(**{**good, key: bad})


BELOW_THE_FLOOR = {
    "DescentSet": lambda: DescentSet((0,)),
    "count_content": lambda: oracle.count_content((0, 2), TWO),
    "count_coeff_witnesses": lambda: oracle.count_coeff_witnesses(TWO, -1),
    "coefficient": lambda: POLY.coefficient(-1),
    "RibbonShape": lambda: schur.RibbonShape((0, 2)),
    "rect_coeff": lambda: schur.rect_coeff((-1, 3), 1, 2),
    "block_sums": lambda: block_sums((1, 2), (0, 2)),
    "EnumerationBudget": lambda: oracle.EnumerationBudget(0),
}


@pytest.mark.parametrize("name", BELOW_THE_FLOOR)
def test_int_arguments_below_their_floor_are_refused(name):
    with pytest.raises(DomainError, match="must be >= "):
        BELOW_THE_FLOOR[name]()


def test_longest_run_known_values():
    assert DescentSet((2, 3, 5, 7, 10, 11, 12)).longest_run == 3
    assert DescentSet((4,)).longest_run == 1
    assert DescentSet((1, 2, 3)).longest_run == 3
    assert DescentSet((1, 3, 5)).longest_run == 1


def test_longest_run_undefined_for_empty_set():
    with pytest.raises(DomainError):
        DescentSet().longest_run


def test_first_differences():
    assert DescentSet((4, 8, 9)).first_differences == (4, 4, 1)
    assert DescentSet((2,)).first_differences == (2,)
    assert DescentSet().first_differences == ()


@given(st.sets(st.integers(1, 40), min_size=1, max_size=8))
def test_first_differences_partial_sums_recover_the_set(elements):
    ds = DescentSet(elements)
    diffs = ds.first_differences
    assert all(d >= 1 for d in diffs)
    assert sum(diffs) == ds.largest
    total = 0
    rebuilt = []
    for d in diffs:
        total += d
        rebuilt.append(total)
    assert tuple(rebuilt) == ds.elements


def test_compositions_of_three_in_lexicographic_order():
    assert list(compositions(3)) == [(1, 1, 1), (1, 2), (2, 1), (3,)]


def test_compositions_of_zero_yield_nothing():
    assert list(compositions(0)) == []


@pytest.mark.parametrize("total", range(1, 11))
def test_compositions_count_and_sums(total):
    seen = list(compositions(total))
    assert len(seen) == 2 ** (total - 1)
    assert len(set(seen)) == len(seen)
    assert all(sum(parts) == total for parts in seen)
    assert all(all(p >= 1 for p in parts) for parts in seen)
    assert seen == sorted(seen)


def recursive_compositions(total):
    """Reference: every composition, first part smallest first."""
    if total == 0:
        return [()]
    return [
        (first,) + rest
        for first in range(1, total + 1)
        for rest in recursive_compositions(total - first)
    ]


def test_compositions_match_a_recursive_reference():
    for total in range(1, 9):
        assert list(compositions(total)) == recursive_compositions(total), total


def test_compositions_have_no_recursion_ceiling():
    assert next(compositions(1200)) == (1,) * 1200


def test_block_sums_known_grouping():
    # blocks of sizes (3,1,2,2) over eight weights
    weights = (2, 1, 1, 3, 1, 2, 1, 1)
    assert block_sums(weights, (3, 1, 2, 2)) == (4, 3, 3, 2)


def test_block_sums_single_block():
    assert block_sums((4, 4, 1), (3,)) == (9,)


def test_block_sums_identity_grouping():
    assert block_sums((5, 2, 7), (1, 1, 1)) == (5, 2, 7)


def test_block_sums_size_mismatch_rejected():
    with pytest.raises(DomainError):
        block_sums((1, 2, 3), (2, 2))
    with pytest.raises(DomainError):
        block_sums((1, 2), (2, 0))


@given(
    st.lists(st.integers(1, 6), min_size=1, max_size=8).flatmap(
        lambda weights: st.tuples(
            st.just(weights),
            st.permutations(list(range(1, len(weights)))).map(
                lambda cuts: sorted(cuts[: max(0, len(weights) // 2)])
            ),
        )
    )
)
@settings(max_examples=60)
def test_block_sums_preserve_total_and_length(case):
    weights, cuts = case
    bounds = [0] + sorted(set(cuts)) + [len(weights)]
    parts = tuple(b - a for a, b in zip(bounds, bounds[1:]) if b > a)
    sums = block_sums(weights, parts)
    assert len(sums) == len(parts)
    assert sum(sums) == sum(weights)
