"""The benchmark's hooks into the library, and the demos, still work.

``perfbench/spans.py`` wraps library functions by module attribute name, so a
rename would only surface when a traced benchmark run crashes.  The demos
are scripts nothing else runs.  The count-wide references were cross-checked
by reflection when recorded, so the determinant route must reproduce them;
the prefix, recurrence and determinant routes must each reproduce the
count-dense references, and the verify reports must keep the recorded
verify-full check counts.
The harness's own smoke check runs here too, so a library change that
breaks the harness fails in the tests and not only at benchmark time.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import multidescent
from multidescent.core import DescentSet
from multidescent.formulas import descent_count
from multidescent.oracle import count_prefix
from multidescent.schur import count_via_jacobi_trudi

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def load_perfbench(name):
    """A benchmark module, read from its file; dataclasses need it registered."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_exists():
    missing = [
        (getattr(owner, "__name__", owner), attr)
        for owner, attr, _, _ in load_perfbench("spans").TARGETS
        if attr not in owner.__dict__
    ]
    assert missing == []


def test_jacobi_trudi_reproduces_the_count_wide_references():
    refs = json.loads((ROOT / "perfbench" / "refs" / "count-wide.json").read_text())
    assert len(refs) == 256
    wrong = []
    for key, expected in refs.items():
        elements, n, m = ast.literal_eval(key)
        if count_via_jacobi_trudi(DescentSet(elements), n, m) != expected:
            wrong.append(key)
    assert wrong == []


def count_dense_mismatches(route):
    refs = json.loads((ROOT / "perfbench" / "refs" / "count-dense.json").read_text())
    assert len(refs) == 3477
    wrong = []
    for key, expected in refs.items():
        elements, n, m = ast.literal_eval(key)
        if route(DescentSet(elements), n, m) != expected:
            wrong.append(key)
    return wrong


def test_prefix_reproduces_the_count_dense_references():
    assert count_dense_mismatches(count_prefix) == []


def test_recurrence_reproduces_the_count_dense_references():
    assert count_dense_mismatches(descent_count) == []


def test_jacobi_trudi_reproduces_the_count_dense_references():
    assert count_dense_mismatches(count_via_jacobi_trudi) == []


def test_closed_form_reproduces_the_stable_coeffs_references():
    workload = load_perfbench("workloads").WORKLOADS["stable-coeffs"]
    refs = workload.load_refs()
    assert len(refs) == 30
    seen = {}
    for seed in (0, 1):
        for op in workload.ops(seed):
            value, ok = workload.execute(op, {})
            assert ok, op
            seen[repr(op)] = value
    assert seen == refs


def test_verify_reports_reproduce_the_verify_full_check_counts():
    # a report whose grid or checks change shape fails here, not in the bench
    workload = load_perfbench("workloads").WORKLOADS["verify-full"]
    refs = workload.load_refs()
    assert len(refs) == 14
    seen = {}
    for op in workload.ops(0):
        value, ok = workload.execute(op, {})
        assert ok, op
        seen[repr(op)] = value
    assert seen == refs


def test_perfbench_smoke_passes_and_writes_nothing():
    bench = ROOT / "perfbench"
    before = {p: p.stat().st_mtime_ns for p in bench.rglob("*")}
    proc = subprocess.run(
        [sys.executable, str(bench / "smoke.py")],
        capture_output=True,
        text=True,
        timeout=600,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert {p: p.stat().st_mtime_ns for p in bench.rglob("*")} == before


def test_demos_are_present():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    src = str(Path(multidescent.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
