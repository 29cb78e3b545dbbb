"""Acceptance gate: one pass/fail line per criterion, all arithmetic exact.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every comparison is integer equality; there is no tolerance anywhere.
"""

import time

from multidescent import formulas, oracle, polybasis, schur, verify
from multidescent.core import DescentSet


def _report_criterion(number, description, violations, elapsed, budget=None):
    ok = not violations
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {description} "
          f"[{elapsed:.2f}s]")
    for item in list(violations)[:5]:
        print(f"    violation: {item}")
    assert ok, f"criterion {number}: {len(violations)} violation(s)"
    if budget is not None:
        assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s"


def _failures(report):
    return [f"{c.claim}: expected {c.expected!r}, got {c.actual!r}"
            for c in report.failures]


def test_criterion_1_known_count_by_all_four_routes():
    start = time.perf_counter()
    ds = DescentSet((2,))
    results = {
        "naive": oracle.count_naive(ds, 3, 2),
        "prefix": oracle.count_prefix(ds, 3, 2),
        "recurrence": formulas.descent_count(ds, 3, 2),
        "jacobi-trudi": schur.count_via_jacobi_trudi(ds, 3, 2),
    }
    violations = [f"{name} gave {value}, want 5"
                  for name, value in results.items() if value != 5]
    _report_criterion(
        1, "all four routes count 5 words for descents {2}, n=3, m=2",
        violations, time.perf_counter() - start, budget=1.0,
    )


def test_criterion_2_four_route_agreement_grid():
    start = time.perf_counter()
    report = verify.agreement_report(top=4, n_max=4, m_max=3, cells_max=12)
    _report_criterion(
        2, f"route agreement on the exhaustive grid ({len(report.checks)} checks)",
        _failures(report), time.perf_counter() - start, budget=120.0,
    )


def test_criterion_3_stabilization_point():
    start = time.perf_counter()
    report = verify.stabilization_report(top=5)
    _report_criterion(
        3, "strict rise into the stabilization point, constant after",
        _failures(report), time.perf_counter() - start, budget=120.0,
    )


def test_criterion_4_stabilized_closed_form():
    start = time.perf_counter()
    report = verify.stable_form_report(top=5, span=3)
    _report_criterion(
        4, "closed form equals stabilized counts and last-value sums",
        _failures(report), time.perf_counter() - start, budget=60.0,
    )


def test_criterion_5_last_value_formula():
    start = time.perf_counter()
    report = verify.last_fixed_report(top=4, span=3)
    _report_criterion(
        5, "last-value formula matches enumeration for every last value",
        _failures(report), time.perf_counter() - start,
    )


def test_criterion_6_coefficient_laws():
    start = time.perf_counter()
    violations = []
    violations.extend(_failures(verify.window_report(top=6)))
    violations.extend(_failures(verify.prefix_signs_report(top=6)))
    violations.extend(_failures(verify.sign_survey_report(top=6, k_min=-3, k_max=2)))
    _report_criterion(
        6, "coefficient window, alternating prefix, and sign laws",
        violations, time.perf_counter() - start, budget=120.0,
    )


def test_criterion_7_single_descent_closed_form():
    start = time.perf_counter()
    report = verify.single_descent_report(a_max=6, n_max=10)
    _report_criterion(
        7, "single-descent stabilized count is binom(n+a-1, a) - 1",
        _failures(report), time.perf_counter() - start,
    )


def test_criterion_8_polynomial_in_alphabet_size():
    start = time.perf_counter()
    report = verify.polynomiality_report(top=6, m_max=4)
    _report_criterion(
        8, "forward differences past the degree vanish at fixed multiplicity",
        _failures(report), time.perf_counter() - start,
    )


def test_criterion_9_ribbon_shape():
    start = time.perf_counter()
    shape = schur.ribbon_shape(DescentSet((4, 8, 9)), 5, 3)
    violations = []
    if shape.outer != (12, 7, 7, 4):
        violations.append(f"outer shape {shape.outer}")
    if shape.inner != (6, 6, 3, 0):
        violations.append(f"inner shape {shape.inner}")
    if shape.cell_count != 15:
        violations.append(f"cell count {shape.cell_count}")
    outer, inner = shape.outer, shape.inner
    for i in range(len(outer) - 1):
        # a 2x2 block exists exactly when a lower row reaches two columns
        # into the overlap with the row above
        if inner[i] != outer[i + 1] - 1:
            violations.append(f"rows {i} and {i + 1} overlap in "
                              f"{outer[i + 1] - inner[i]} columns")
    # inner is derived from outer, so the overlap test above restates that
    # derivation; the cells themselves must be 15, connected, and hold no
    # 2x2 block
    cells = {(r, c) for r in range(len(outer)) for c in range(inner[r], outer[r])}
    if len(cells) != 15:
        violations.append(f"{len(cells)} cells between outer and inner")
    for r, c in cells:
        if {(r, c + 1), (r + 1, c), (r + 1, c + 1)} <= cells:
            violations.append(f"2x2 block at row {r}, column {c}")
    reached, stack = set(), [min(cells)]
    while stack:
        r, c = stack.pop()
        if (r, c) not in reached:
            reached.add((r, c))
            stack += {(r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)} & cells
    if reached != cells:
        violations.append(f"{len(cells - reached)} cells cut off from row 0")
    _report_criterion(
        9, "ribbon for descents {4,8,9} at n=5, m=3 has the frozen shape",
        violations, time.perf_counter() - start,
    )
