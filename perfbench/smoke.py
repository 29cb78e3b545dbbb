"""Smoke check of the benchmark harness itself.

    python3 perfbench/smoke.py

Runs every workload at a tiny size, untraced and traced, and checks that
each metric named in BENCHMARK.json is reported and that no op fails.
Then corrupts one recorded reference and checks that the harness counts
exactly that op as failed.  Exits 1 on any problem.
"""

from __future__ import annotations

import copy
import json
import sys

from run import ROOT, import_library, measure, setup_samples

import_library()
from workloads import WORKLOADS, op_key  # noqa: E402

TINY = 2  # ops per pass


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    problems = []
    for workload in WORKLOADS.values():
        refs = workload.load_refs()
        for trace, wanted in ((False, end_to_end), (True, per_layer)):
            runner, metrics, _ = measure(workload, refs, 0, 0, trace, size=TINY)
            if not trace:
                metrics["setup_s"] = (setup_samples(workload.name, 0, 1)[0], "s")
            missing = wanted - set(metrics)
            extra = set(metrics) - wanted
            if missing or extra:
                problems.append(f"{workload.name} trace={trace}: missing {missing}, extra {extra}")
            if runner.failed:
                problems.append(f"{workload.name} trace={trace}: {runner.failures}")
        print(f"ok {workload.name}")

    workload = WORKLOADS["count-dense"]
    refs = copy.deepcopy(workload.load_refs())
    op = workload.ops(0, TINY)[0]
    refs[op_key(op)] += 1
    runner, _, _ = measure(workload, refs, 0, 0, False, size=TINY)
    if (runner.attempted, runner.failed) != (TINY, 1):
        problems.append(
            f"a wrong reference gave {runner.failed} failed of {runner.attempted}, "
            f"expected 1 of {TINY}"
        )
    else:
        print("ok a wrong reference counts as one failed op")

    for line in problems:
        print(f"PROBLEM {line}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
