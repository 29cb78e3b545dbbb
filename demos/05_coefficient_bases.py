"""Coefficients of the stabilized count in shifted binomial bases.

Written over binom(n-1, i) the coefficients are nonnegative, live in a
window pinned by the descent set, and count concrete words.  Written over
binom(n, i) the low ones alternate in sign.  One Pascal step converts
between any two neighboring bases without leaving the integers.
"""
from multidescent import (
    DescentSet,
    count_coeff_witnesses,
    extract_coeffs,
    shift_basis,
    stable_descent_count,
    witness_counts,
)

ds = DescentSet((2, 4, 5))
print(f"descent set {ds}: largest element {ds.largest}, "
      f"longest consecutive run {ds.longest_run}")

base = extract_coeffs(ds, -1)
print(f"\ncoefficients over binom(n-1, i): {list(base.coeffs)}")
print(f"nonzero exactly for i in [{ds.longest_run}, {ds.largest}]")

# each coefficient counts words over 1..i+1 that hit every value above 1,
# end above 1, and have the prescribed descents; one walk tallies every
# index, split by whether the word holds 1, and each index's counter, read
# off the last-value tallies by inclusion-exclusion, agrees
table = witness_counts(ds)
for i, (upper, full) in enumerate(table):
    witnesses = upper + full
    assert witnesses == base.coefficient(i) == count_coeff_witnesses(ds, i)
    print(f"  i={i}: coefficient {base.coefficient(i)}, witness words {witnesses} "
          f"({upper} without 1, {full} with 1)")

# the same polynomial over binom(n, i): the first few coefficients are
# forced to alternate, so a negative entry always shows up
shifted = extract_coeffs(ds, 0)
print(f"\ncoefficients over binom(n, i):   {list(shifted.coeffs)}")

print("\nthe offsets connect by Pascal steps:")
for k in range(-3, 3):
    coeffs = shift_basis(base, k).coeffs
    flag = "all >= 0" if all(c >= 0 for c in coeffs) else "mixed signs"
    print(f"  offset {k:>2}: {str(list(coeffs)):<28} {flag}")

# every representation evaluates back to the same stabilized count
for n in range(1, 9):
    reference = stable_descent_count(ds, n)
    assert base.evaluate(n) == reference
    assert shifted.evaluate(n) == reference
print("\nevery base evaluates back to the stabilized count")
