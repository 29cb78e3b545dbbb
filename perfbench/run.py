"""Benchmark of the multidescent library: one workload, one seed, one run.

    python3 perfbench/run.py --workload count-dense --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
The load is a closed loop with one client: one process, one thread, ops
issued back to back.  A run repeats the workload's seeded pass of ops, with
rounds of its cheapest ops in between, each pass or round on the next of
the CPUs the process may use.  After the first pass it starts no op whose
least latency so far would take it past ``--seconds``.

With ``--trace 0`` the run is untraced and reports the end-to-end metrics.
With ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (counts from the first, times as
medians) and ``trace_overhead_ratio``.

Every op is checked: cross-route agreement or the workload's own law, plus
the recorded reference where one exists.  A wrong value, a failed check,
an exception or a hit of the per-op time cap counts as a failed op; the
run never stops early for one.  The last line of standard output is the
JSON result; the lines before it are an environment header and every
metric by name and unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

OP_CAP_S = 30  # per-op time cap; the slowest op today takes about 6 s
GRACE_S = 60  # a pass that must finish starts no op later than this past --seconds
SHORT_OPS = 0.6  # share of the pass's ops, the cheapest, that short rounds run
SHORT_SHARE = 0.2  # share of the measured time that short rounds take
SETUP_SAMPLES = 7


class OpTimeout(Exception):
    """Raised in the main thread when an op outlives its time cap."""


def _alarm(signum, frame):
    raise OpTimeout()


def import_library():
    """Import ``multidescent`` from this checkout's ``src/``, or exit with
    an error when it is not there."""
    if not (SRC / "multidescent" / "__init__.py").is_file():
        sys.exit(f"error: no multidescent package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import multidescent

    if Path(multidescent.__file__).resolve().parent != SRC / "multidescent":
        sys.exit(f"error: multidescent imported from {multidescent.__file__}, not {SRC}")


def commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_samples(workload: str, seed: int, count: int) -> list[float]:
    """Wall times of fresh processes that import the library, build the
    pass and load the references.  They start without ``site`` (``-S``):
    the library needs nothing from site-packages, whose start-up hooks
    would add time and noise of their own."""
    probe = [sys.executable, "-S", str(BENCH / "setup_probe.py"), workload, str(seed)]
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        # No timeout: with one, the wait polls and rounds up by up to 50 ms.
        subprocess.run(probe, check=True, cwd=ROOT)
        samples.append(time.perf_counter() - start)
    return samples


class Runner:
    """Executes the ops of one pass with the time cap and checks, tallies
    outcomes and keeps each op's least latency."""

    def __init__(self, workload, refs: dict, ops: list[tuple], seconds: float):
        self.workload = workload
        self.refs = refs
        self.ops = ops
        start = time.perf_counter()
        self.deadline = start + seconds
        self.hard_deadline = self.deadline + GRACE_S
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.latencies: list[float] = []
        self.least = [float("inf")] * len(ops)
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []

    def pin(self, index: int) -> None:
        """Move to the next of the CPUs this process may use.

        On a shared virtual machine one vCPU often runs up to 1.8x slower
        than the other for seconds at a time (its host core is busy), and
        the kernel has no reason to move a lone busy process off it.
        Passes and rounds take turns on each CPU, so that an op's least
        latency comes from whichever CPU was fast."""
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, {self.cpus[index % len(self.cpus)]})

    def unpin(self) -> None:
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, self.cpus)

    def run_slots(self, index: int, slots, finish: bool = False):
        """Run the ops at ``slots``; return the wall seconds, the route
        clock and the number of ops run.  An op whose least latency would
        take it past the deadline is skipped, unless ``finish`` is set;
        past the hard deadline nothing starts."""
        self.pin(index)
        clock: dict[str, float] = {}
        start = time.perf_counter()
        done = 0
        for slot in slots:
            now = time.perf_counter()
            if now >= self.hard_deadline:
                break
            if not finish and now + self.least[slot] > self.deadline:
                continue
            latency = self.run_op(index, slot, self.ops[slot], clock)
            self.least[slot] = min(self.least[slot], latency)
            done += 1
        return time.perf_counter() - start, clock, done

    def run_op(self, index: int, slot: int, op: tuple, clock: dict[str, float]) -> float:
        self.attempted += 1
        op_start = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
            try:
                result, ok = self.workload.execute(op, clock)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpTimeout:
            result, ok, why = None, False, f"time cap {OP_CAP_S} s"
        except Exception as exc:  # any exception is a failed op, not a stop
            result, ok, why = None, False, f"{type(exc).__name__}: {exc}"
        else:
            why = "route disagreement or failed check"
        latency = time.perf_counter() - op_start
        self.latencies.append(latency)
        if ok and not self.workload.matches(self.refs, op, result):
            ok, why = False, "differs from the recorded reference"
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"pass {index} op {slot} {op!r}: {why}")
        return latency


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def untraced(runner: Runner) -> tuple[dict, dict]:
    """Run the pass, then alternate full passes with short rounds until
    the deadline; end-to-end metrics and the per-route detail.

    An op's latency is the least of its runs.  On a shared 2-vCPU virtual
    machine each vCPU's speed changed by up to 1.8x over seconds to
    minutes; that noise only ever slows an op down, so the least over runs
    spread across the whole run and across the CPUs is the steadiest
    estimate of what the code costs.
    A short round runs the cheapest ``SHORT_OPS`` of the pass's ops, which
    hold the median, and short rounds take ``SHORT_SHARE`` of the time:
    where one op takes most of a pass, they give the median op many more
    runs than the passes alone would.  Throughput is the pass's op count
    over the sum of the least latencies.
    """
    count = len(runner.ops)
    everything = range(count)
    elapsed, clock, _ = runner.run_slots(0, everything, finish=True)
    times, clocks = [elapsed], [clock]
    cheapest = sorted(everything, key=runner.least.__getitem__)
    short = sorted(cheapest[: int(SHORT_OPS * count)])
    full_s, short_s, rounds, index = elapsed, 0.0, 0, 0
    while time.perf_counter() < runner.deadline:
        index += 1
        if short and short_s < full_s * SHORT_SHARE / (1 - SHORT_SHARE):
            elapsed, _, done = runner.run_slots(index, short)
            short_s += elapsed
            rounds += 1
        else:
            elapsed, clock, done = runner.run_slots(index, everything)
            full_s += elapsed
            if done == count:
                times.append(elapsed)
                clocks.append(clock)
        if done == 0:
            break
    least = [x for x in runner.least if x < float("inf")]
    metrics = {
        "ops_per_s": (len(least) / sum(least), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(least), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {
        "passes": (len(times), "count"),
        "short_rounds": (rounds, "count"),
        "first_pass_s": (times[0], "s"),
        "pass_s": (statistics.median(times), "s"),
        "op_p50_ms_all": (1e3 * statistics.median(runner.latencies), "ms"),
    }
    if len(least) >= 100:
        detail["op_p90_ms"] = (1e3 * percentile(least, 90), "ms")
    for key in sorted({k for clock in clocks for k in clock}):
        detail[key] = (statistics.median(c.get(key, 0.0) for c in clocks), "s")
    return metrics, detail


def traced(runner: Runner) -> tuple[dict, dict]:
    """Repeat the pass, alternating untraced and traced executions, while
    another pair fits before the deadline; per-layer metrics and the
    tracing overhead."""
    from spans import Tracer

    everything = range(len(runner.ops))
    plain, tracers, traced_s = [], [], []
    while not tracers or time.perf_counter() + plain[-1] + traced_s[-1] <= runner.deadline:
        tracer = Tracer()
        for with_trace in (len(tracers) % 2 == 1, len(tracers) % 2 == 0):
            index = len(plain) + len(traced_s)
            if with_trace:
                with tracer.installed():
                    elapsed, _, done = runner.run_slots(index, everything, finish=True)
                traced_s.append(elapsed)
            else:
                elapsed, _, done = runner.run_slots(index, everything, finish=True)
                plain.append(elapsed)
        tracers.append(tracer)
        if done < len(everything):
            break
    layers = [t.per_layer() for t in tracers]
    metrics = {}
    for name, (value, unit) in layers[0].items():
        if unit == "s":
            value = statistics.median(layer[name][0] for layer in layers)
        metrics[name] = (value, unit)
    metrics["trace_overhead_ratio"] = (
        statistics.median(traced_s) / statistics.median(plain),
        "ratio",
    )
    detail = {"repeats": (len(tracers), "count")}
    for (parent, child), (calls, _) in sorted(tracers[0].edges.items()):
        detail[f"span {parent or '-'} > {child}"] = (calls, "calls")
    return metrics, detail


def measure(workload, refs: dict, seed: int, seconds: float, trace: bool, size=None):
    """One run; returns the runner (outcomes) and the metrics and detail,
    each as name -> (value, unit)."""
    runner = Runner(workload, refs, workload.ops(seed, size), seconds)
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        metrics, detail = (traced if trace else untraced)(runner)
    finally:
        runner.unpin()
        signal.signal(signal.SIGALRM, previous)
    detail["error_rate"] = (runner.failed / runner.attempted, "ratio")
    return runner, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    env = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "commit": commit(),
    }
    print(json.dumps({"env": env}))

    # Set-up is sampled before and after the measured loop, so that one
    # slow spell of the host does not set the median.
    setup = [] if args.trace else setup_samples(workload.name, args.seed, SETUP_SAMPLES // 2)
    runner, metrics, detail = measure(
        workload, workload.load_refs(), args.seed, args.seconds, bool(args.trace)
    )
    if not args.trace:
        setup += setup_samples(workload.name, args.seed, SETUP_SAMPLES - len(setup))
        metrics["setup_s"] = (statistics.median(setup), "s")
    for name, (value, unit) in {**metrics, **detail}.items():
        print(f"{name:40s} {value:.6g} {unit}")
    for line in runner.failures:
        print(f"FAILED {line}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
