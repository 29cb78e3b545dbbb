"""From a descent set to a ribbon to a determinant to a count.

Words with a prescribed descent set are fillings of a staircase-like skew
shape with no 2x2 block.  The count is then a sum over the signed
coarsenings of the row lengths of products of bounded-multiset counts, one
factor per merged row length.
"""
from multidescent import (
    DescentSet,
    count_naive,
    count_via_jacobi_trudi,
    jacobi_trudi_terms,
    rect_coeff,
    ribbon_shape,
)

ds = DescentSet((2, 4))
n, m = 3, 3

shape = ribbon_shape(ds, n, m)
print(f"descent set {ds}, n={n}, m={m}")
print(f"outer shape {shape.outer}, inner shape {shape.inner}")
print(f"{shape.cell_count} cells in {shape.row_count} rows, "
      f"row lengths {shape.row_lengths}")

# draw it: each row starts where the previous one ends, offset by one column
for outer_len, inner_len in zip(shape.outer, shape.inner):
    print("  " + ". " * inner_len + "# " * (outer_len - inner_len))

print("\ndeterminant expansion (sign, degrees of the factors):")
total = 0
for sign, degrees in jacobi_trudi_terms(shape):
    # each factor h_d stands for the weakly increasing words of length d
    # over 1..n; the whole term contributes the matrices with those row
    # sums whose columns each sum to m, one contingency count per term
    value = rect_coeff(degrees, n, m)
    total += sign * value
    print(f"  {'+' if sign > 0 else '-'} h{list(degrees)} -> {value}")

print(f"\nsigned total      : {total}")
print(f"direct count      : {count_naive(ds, n, m)}")
print(f"library determinant: {count_via_jacobi_trudi(ds, n, m)}")
assert total == count_naive(ds, n, m) == count_via_jacobi_trudi(ds, n, m)
