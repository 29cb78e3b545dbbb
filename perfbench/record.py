"""Record the reference values that benchmark runs check against.

    python3 perfbench/record.py [workload ...]

Writes ``perfbench/refs/<workload>.json``.  Every recorded value is
cross-checked before it is written; a disagreement aborts the recording.

- count-dense, count-wide: every query the generator can draw, so every
  seed is checked against a recorded value.  count-dense values must agree
  across prefix, recurrence and Jacobi-Trudi; count-wide values (Jacobi-
  Trudi only) must agree with the count of the reflected set
  ``{n*m - i}``, which reversing and complementing words shows is equal.
- stable-coeffs: a digest of the result of every op of the default seed 0
  and the held-out seed 1, each op passing its own evaluation check.
  Other seeds are checked by that law alone.
- verify-full: the number of checks in each report, all passing.
"""

from __future__ import annotations

import json
import sys

from run import import_library

import_library()
from multidescent import DescentSet, schur  # noqa: E402
from workloads import (  # noqa: E402
    REFS,
    VERIFY_GRIDS,
    WORKLOADS,
    dense_execute,
    dense_universe,
    op_key,
    stable_execute,
    verify_execute,
    wide_universe,
)

STABLE_SEEDS = (0, 1)


def record_dense() -> dict:
    values = {}
    for op in dense_universe():
        value, agree = dense_execute(op, {})
        if not agree:
            raise SystemExit(f"routes disagree on {op}")
        values[op_key(op)] = value
    return values


def record_wide() -> dict:
    values = {}
    for op in wide_universe():
        elements, n, m = op
        value = schur.count_via_jacobi_trudi(DescentSet(elements), n, m)
        mirror = DescentSet(tuple(n * m - i for i in elements))
        if value != schur.count_via_jacobi_trudi(mirror, n, m):
            raise SystemExit(f"reflection disagrees on {op}")
        values[op_key(op)] = value
    return values


def record_stable() -> dict:
    workload = WORKLOADS["stable-coeffs"]
    values = {}
    for seed in STABLE_SEEDS:
        for op in workload.ops(seed):
            result, ok = stable_execute(op, {})
            if not ok:
                raise SystemExit(f"evaluation check fails on {op}")
            values[op_key(op)] = result
    return values


def record_verify() -> dict:
    values = {}
    for name in VERIFY_GRIDS:
        count, passed = verify_execute((name,), {})
        if not passed:
            raise SystemExit(f"verify report {name} fails")
        values[op_key((name,))] = count
    return values


RECORDERS = {
    "count-dense": record_dense,
    "count-wide": record_wide,
    "stable-coeffs": record_stable,
    "verify-full": record_verify,
}


def main() -> None:
    names = sys.argv[1:] or list(RECORDERS)
    REFS.mkdir(exist_ok=True)
    for name in names:
        refs = RECORDERS[name]()
        with open(REFS / f"{name}.json", "w") as f:
            json.dump(refs, f, indent=0, sort_keys=True)
            f.write("\n")
        print(f"recorded {name}")


if __name__ == "__main__":
    main()
