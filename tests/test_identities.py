"""Classical identities that hold at every size, checked through the routes.

Each side is computed by a route or by a few lines that share nothing with
any route, so these checks reach past the sizes the oracles can enumerate.
"""

from math import comb, factorial

from hypothesis import given, settings
from hypothesis import strategies as st

from multidescent.core import DescentSet
from multidescent.formulas import descent_count
from multidescent.oracle import count_prefix
from multidescent.schur import count_via_jacobi_trudi
from multidescent.verify import descent_sets_up_to


@st.composite
def reflection_cases(draw):
    n = draw(st.integers(1, 15))
    m = draw(st.integers(2 if n == 1 else 1, 30 // n))
    elements = draw(st.sets(st.integers(1, n * m - 1), max_size=7))
    return tuple(elements), n, m


@settings(max_examples=200, deadline=None)
@given(reflection_cases())
def test_reflection_moves_each_descent_i_to_nm_minus_i(case):
    # reversing a word and complementing its values keeps the content m^n
    # and moves a descent at i to n*m - i
    elements, n, m = case
    mirrored = DescentSet(tuple(n * m - i for i in elements))
    assert count_via_jacobi_trudi(DescentSet(elements), n, m) == count_via_jacobi_trudi(
        mirrored, n, m
    )


def descent_polynomial(elements, n):
    """d(I; n) at m = 1 by the recursion of Diaz-Lopez, Harris, Insko, Omar
    and Sagan, "Descent polynomials" (2019): d(∅; n) = 1 and
    d(I; n) = C(n, max I) d(I⁻; max I) - d(I⁻; n)."""
    if not elements:
        return 1
    *rest, top = elements
    return comb(n, top) * descent_polynomial(rest, top) - descent_polynomial(rest, n)


def test_single_multiplicity_counts_follow_the_descent_polynomial_recursion():
    # every set within {1..8}: prefix at max(I) + 1, the recurrence and
    # Jacobi-Trudi also at max(I) + 7 and 10^6
    for ds in descent_sets_up_to(8):
        top = ds.largest
        assert count_prefix(ds, top + 1, 1) == descent_polynomial(ds.elements, top + 1)
        for n in (top + 1, top + 7, 10**6):
            expected = descent_polynomial(ds.elements, n)
            assert descent_count(ds, n, 1) == expected, (ds, n)
            assert count_via_jacobi_trudi(ds, n, 1) == expected, (ds, n)


def test_every_word_has_one_descent_set():
    # summed over every I within {1..nm-1}, the counts give all
    # (nm)! / (m!)^n words, at every 2 <= n*m <= 10
    for n in range(1, 11):
        for m in range(1, 10 // n + 1):
            if n * m < 2:
                continue
            sets = [DescentSet(), *descent_sets_up_to(n * m - 1)]
            total = sum(count_via_jacobi_trudi(ds, n, m) for ds in sets)
            assert total == factorial(n * m) // factorial(m) ** n, (n, m)
