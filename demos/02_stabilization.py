"""Raise the multiplicity and watch the count stop changing.

Once every value appears often enough, adding more copies cannot create new
descent patterns in the fixed-length prefix that determines the count, so
the sequence of counts becomes constant.  The point where that happens
depends only on the descent set.  The counts come from the determinant
route, which answers the small-m corner (n*m <= max(I)) with 0 like the
others and stays fast as m grows, where the prefix walk slows down.
"""
from multidescent import DescentSet, count_via_jacobi_trudi, stabilization_point

for raw in [(3,), (2, 4), (4, 8, 9)]:
    ds = DescentSet(raw)
    point = stabilization_point(ds)
    n = ds.largest + 1
    print(f"descent set {ds}: stabilization point M = {point}")
    for m in range(1, point + 3):
        bar = "*" if m >= point else ""
        print(f"  m={m:<2} count={count_via_jacobi_trudi(ds, n, m):<8} {bar}")
    print()

# the plateau value is reached exactly at M, not before: the step from M-1
# to M is a strict increase whenever M >= 2
ds = DescentSet((4, 8, 9))
point = stabilization_point(ds)
n = ds.longest_run + 1
before = count_via_jacobi_trudi(ds, n, point - 1)
at = count_via_jacobi_trudi(ds, n, point)
after = count_via_jacobi_trudi(ds, n, point + 5)
print(f"{ds} at n={n}: m={point - 1} gives {before}, "
      f"m={point} gives {at}, m={point + 5} still gives {after}")
assert before < at == after
