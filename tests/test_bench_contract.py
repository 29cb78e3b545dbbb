"""The benchmark's hooks into the library, and the demos, still work.

``perfbench/spans.py`` wraps library functions by module attribute name, so a
rename would only surface when a traced benchmark run crashes.  The demos
are scripts nothing else runs.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import multidescent

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def load_spans():
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_exists():
    missing = [
        (getattr(owner, "__name__", owner), attr)
        for owner, attr, _, _ in load_spans().TARGETS
        if attr not in owner.__dict__
    ]
    assert missing == []


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
