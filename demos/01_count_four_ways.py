"""Count the same words four ways and watch the answers agree."""
from multidescent import DescentSet, count_naive, count_prefix
from multidescent import descent_count, count_via_jacobi_trudi

ds = DescentSet((2, 4))
print(f"descent set {ds}: words where positions 2 and 4 step down, "
      f"everything else steps up or stays")

# three copies of each of 1..3, so words have 9 cells
n, m = 3, 3
print(f"\nn={n}, m={m}")
print("  full enumeration :", count_naive(ds, n, m))
print("  prefix counting  :", count_prefix(ds, n, m))
print("  recurrence       :", descent_count(ds, n, m))
print("  determinant      :", count_via_jacobi_trudi(ds, n, m))

# the empty set asks for no descent at all: only the sorted word 111222333
# qualifies, and every route counts that one word
empty = DescentSet()
print(f"\ndescent set {empty}, n={n}, m={m}")
print("  full enumeration :", count_naive(empty, n, m))
print("  prefix counting  :", count_prefix(empty, n, m))
print("  recurrence       :", descent_count(empty, n, m))
print("  determinant      :", count_via_jacobi_trudi(empty, n, m))

# every route answers every n and m: with n*m <= 4 there is no position
# after the last descent, and all four give 0; full enumeration's transfer
# is charged at most 2180 here, 545 states of 4 offers each, well inside
# its budget
print("\nsmall grid, every route:")
print(f"{'n':>3} {'m':>3} {'count':>8}")
for n in range(1, 5):
    for m in range(1, 4):
        value = descent_count(ds, n, m)
        assert value == count_prefix(ds, n, m) == count_via_jacobi_trudi(ds, n, m)
        assert value == count_naive(ds, n, m)
        print(f"{n:>3} {m:>3} {value:>8}")

print("\nevery route agreed at every point")
