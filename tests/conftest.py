"""Helpers shared by the test modules."""

import subprocess
import sys

import pytest


@pytest.fixture
def run_under_address_limit():
    """A runner of one call in a child process whose address space is capped.

    ``run(megabytes, call)`` evaluates the expression ``call``, with
    ``oracle``, ``schur`` and ``DescentSet`` in scope, under an
    ``RLIMIT_AS`` of ``megabytes`` and prints its value, or ``refused:``
    and the message of a ``BudgetExceededError``; it returns the child's
    exit code, stdout and stderr.  Skips where there is no such limit.
    """
    if not hasattr(pytest.importorskip("resource"), "RLIMIT_AS"):
        pytest.skip("no address-space limit here")

    def run(megabytes, call):
        cap = megabytes * 2**20
        child = (
            "import resource\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
            "from multidescent import oracle, schur\n"
            "from multidescent.core import BudgetExceededError, DescentSet\n"
            "try:\n"
            f"    print({call})\n"
            "except BudgetExceededError as exc:\n"
            "    print('refused:', exc)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", child], capture_output=True, text=True, timeout=120
        )
        return proc.returncode, proc.stdout, proc.stderr

    return run
