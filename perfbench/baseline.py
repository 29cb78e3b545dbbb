"""Repeat benchmark runs over several seeds and summarize their spread.

    python3 perfbench/baseline.py [--seeds 0-9] [--workloads a,b] [--write]

Runs ``run.py`` once per seed and workload, untraced, then once traced at
the first seed.  For every end-to-end metric it prints the median and the
quartile spread (third minus first quartile, as a share of the median)
next to the metric's bound from BENCHMARK.json.  With ``--write`` the
summary of each workload run, with an environment header, replaces that
workload's entry in ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import BENCH, ROOT


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(command, cwd=ROOT, check=True, capture_output=True, text=True)
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    result["env"] = json.loads(lines[0])["env"]
    return result


def seeds(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=seeds, default=seeds("0-9"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        runs = [run(workload, s, spec["run_seconds"], 0) for s in args.seeds]
        failed = sum(r["failed"] for r in runs)
        print(f"{workload}: {len(runs)} runs, {failed} failed ops", flush=True)
        rows = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            rows[name] = {
                "median": median,
                "spread": spread,
                "unit": runs[0]["metrics"][name]["unit"],
                "values": values,
            }
            flag = "" if spread < bound / 3 or name == "setup_s" else "  <-- above bound/3"
            print(f"  {name:14s} median {median:10.4f}  spread {spread:6.3f}  bound {bound}{flag}")
            print("    " + " ".join(f"{v:.4g}" for v in values), flush=True)
        layers = run(workload, args.seeds[0], spec["run_seconds"], 1)
        summary[workload] = {
            "seeds": args.seeds,
            "failed_ops": failed,
            "end_to_end": rows,
            "per_layer": {k: v["value"] for k, v in layers["metrics"].items()},
        }
        env = runs[0]["env"]
    if args.write:
        path = BENCH / "baseline.json"
        old = json.loads(path.read_text())["workloads"] if path.exists() else {}
        header = {k: env[k] for k in ("python", "cpu_count", "commit", "seconds")}
        with open(path, "w") as f:
            json.dump({"env": header, "workloads": {**old, **summary}}, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
