"""Set-up of one benchmark run, timed from outside in a fresh process.

    python3 perfbench/setup_probe.py <workload> <seed>

Imports the library, builds the workload's pass of ops and loads its
recorded references; ``run.py`` reports the median wall time as setup_s.
"""

import sys

from run import import_library

import_library()
from workloads import WORKLOADS  # noqa: E402

workload = WORKLOADS[sys.argv[1]]
workload.ops(int(sys.argv[2]))
workload.load_refs()
