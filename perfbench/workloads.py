"""The benchmark's workloads: seeded inputs, the calls each op makes, and
the checks on every result.

A run repeats one pass: a list of ops drawn from
``random.Random(f"{name}:{seed}")``, so the same seed always gives the same
ops.  Each op of a pass has a fixed stratum (the sizes that set its cost)
and the seed picks the rest, which keeps the cost of a pass close to the
same from seed to seed.  Nothing in the library caches results across
calls; a change that adds such a cache speeds up the repeats, and the
first pass, reported on its own, shows by how much.

The library receives only the generated ``DescentSet``, ``n`` and ``m``
values.  Routes are looked up on their modules at call time, so the span
tracer sees every call.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass
from itertools import accumulate, combinations, product
from pathlib import Path
from typing import Callable

from multidescent import DescentSet, formulas, oracle, polybasis, schur, verify

REFS = Path(__file__).resolve().parent / "refs"

# The 14 verify reports with today's default grids passed explicitly, so
# that widening the library's defaults does not change this workload.
VERIFY_GRIDS = {
    "agreement_report": dict(top=4, n_max=4, m_max=3, cells_max=12),
    "monotonicity_report": dict(top=4, extra_n=3),
    "stabilization_report": dict(top=5),
    "stable_form_report": dict(top=5, span=3),
    "last_fixed_report": dict(top=4, span=3),
    "window_report": dict(top=6),
    "prefix_signs_report": dict(top=6),
    "sign_survey_report": dict(top=6, k_min=-3, k_max=2),
    "single_descent_report": dict(a_max=6, n_max=10),
    "polynomiality_report": dict(top=4, m_max=3),
    "ribbon_report": dict(top=4, n_max=4, m_max=3),
    "basis_roundtrip_report": dict(top=4, k_min=-3, k_max=3),
    "evaluation_report": dict(top=6),
    "witness_split_report": dict(top=4),
}

STABLE_PROBES = (-3, 1, None, 50, 1000)  # None stands for max(I)
SHIFT_OFFSETS = tuple(range(-3, 3))


def timed(clock: dict[str, float], key: str, fn: Callable, *args, **kwargs):
    """Call ``fn`` and add its wall time to ``clock[key]``."""
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    clock[key] = clock.get(key, 0.0) + time.perf_counter() - start
    return value


def digest(value: object) -> str:
    """A short, stable fingerprint of a result built from ints and tuples."""
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def random_set(rng: random.Random, size: int, top: int) -> tuple[int, ...]:
    """A descent set of ``size`` positions whose largest is ``top``."""
    return tuple(sorted(rng.sample(range(1, top), size - 1))) + (top,)


def op_key(op: tuple) -> str:
    """The key of an op's recorded reference."""
    return repr(op)


# --- count-dense -----------------------------------------------------------

DENSE_TOPS = range(5, 9)  # max(I); at 9 a few ops dominate a pass
DENSE_SIZES = range(2, 5)  # |I|
DENSE_MS = range(2, 6)
DENSE_N_MAX = 8


def dense_strata():
    """(max(I), |I|, m, n) with n from floor(max(I)/m) + 1 to 8, so that the
    determinant route applies too."""
    for top in DENSE_TOPS:
        for size in DENSE_SIZES:
            for m in DENSE_MS:
                for n in range(top // m + 1, DENSE_N_MAX + 1):
                    yield top, size, m, n


def dense_universe():
    """Every query count-dense can draw."""
    for top, size, m, n in dense_strata():
        for inner in combinations(range(1, top), size - 1):
            yield inner + (top,), n, m


def dense_pass(rng: random.Random) -> list[tuple]:
    """One op per stratum, each with a set of its own."""
    return [(random_set(rng, size, top), n, m) for top, size, m, n in dense_strata()]


def dense_execute(op: tuple, clock: dict[str, float]) -> tuple[object, bool]:
    elements, n, m = op
    ds = DescentSet(elements)
    by_prefix = timed(clock, "prefix_s", oracle.count_prefix, ds, n, m)
    by_recurrence = timed(clock, "recurrence_s", formulas.descent_count, ds, n, m)
    by_jt = timed(clock, "jacobi_trudi_s", schur.count_via_jacobi_trudi, ds, n, m)
    return by_prefix, by_prefix == by_recurrence == by_jt


# --- count-wide ------------------------------------------------------------

# Seven descents, gaps of 1 or 2, m = 2: the determinant has 8! terms, of
# which 2**7 survive, and expanding them takes about a third of the time.
# Six descents (7! terms) would leave rect_coeff alone at the top.
WIDE_SIZE = 7
WIDE_N_STEPS = 2  # n from floor(max(I)/2) + 1 up by 1; rect_coeff grows with n


def wide_op(gaps, step: int) -> tuple:
    elements = tuple(accumulate(gaps))
    return elements, elements[-1] // 2 + 1 + step, 2


def wide_universe():
    """Every query count-wide can draw."""
    for gaps in product((1, 2), repeat=WIDE_SIZE):
        for step in range(WIDE_N_STEPS):
            yield wide_op(gaps, step)


def wide_pass(rng: random.Random) -> list[tuple]:
    """Two ops per (number of gaps equal to 2, n step) stratum, with 2 to 5
    of the 7 gaps equal to 2, where most sets lie; the number of 2s sets
    max(I) and so the cost, and the seed places them."""
    ops = []
    for twos in range(2, WIDE_SIZE - 1):
        for step in range(WIDE_N_STEPS):
            for _ in range(2):
                where = set(rng.sample(range(WIDE_SIZE), twos))
                ops.append(wide_op([2 if i in where else 1 for i in range(WIDE_SIZE)], step))
    return ops


def wide_execute(op: tuple, clock: dict[str, float]) -> tuple[object, bool]:
    elements, n, m = op
    ds = DescentSet(elements)
    value = timed(clock, "jacobi_trudi_s", schur.count_via_jacobi_trudi, ds, n, m)
    return value, True


# --- stable-coeffs ---------------------------------------------------------


STABLE_SIZES = range(7, 12)  # |I|; cost doubles with each step


def stable_pass(rng: random.Random) -> list[tuple]:
    """One set per |I| and max(I) in {|I|+1, 1.5|I|, 2|I|}."""
    return [
        (random_set(rng, size, top),)
        for size in STABLE_SIZES
        for top in (size + 1, size + size // 2, 2 * size)
    ]


def stable_execute(op: tuple, clock: dict[str, float]) -> tuple[object, bool]:
    (elements,) = op
    ds = DescentSet(elements)
    probes = [ds.largest if n is None else n for n in STABLE_PROBES]
    dinf = tuple(
        timed(clock, "dinf_s", formulas.stable_descent_count, ds, n) for n in probes
    )
    base = timed(clock, "coeffs_s", polybasis.extract_coeffs, ds, -1)
    shifted = tuple(
        timed(clock, "coeffs_s", polybasis.shift_basis, base, k) for k in SHIFT_OFFSETS
    )
    ok = all(base.evaluate(n) == value for n, value in zip(probes, dinf))
    return digest((dinf, base.coeffs, tuple(p.coeffs for p in shifted))), ok


# --- verify-full -----------------------------------------------------------


def verify_pass(rng: random.Random) -> list[tuple]:
    """The 14 reports; the seed only orders them."""
    return [(name,) for name in VERIFY_GRIDS]


def verify_execute(op: tuple, clock: dict[str, float]) -> tuple[object, bool]:
    (name,) = op
    report = timed(clock, "verify_s", getattr(verify, name), **VERIFY_GRIDS[name])
    return len(report.checks), report.passed


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_pass: Callable[[random.Random], list[tuple]]  # cheapest ops first
    execute: Callable[[tuple, dict[str, float]], tuple[object, bool]]

    def ops(self, seed: int, size: int | None = None) -> list[tuple]:
        """The seeded pass, in random order.  ``size`` keeps only its first
        (cheapest) ops."""
        rng = random.Random(f"{self.name}:{seed}")
        ops = self.make_pass(rng)[:size]
        rng.shuffle(ops)
        return ops

    def load_refs(self) -> dict:
        """Recorded results, keyed by :func:`op_key`."""
        with open(REFS / f"{self.name}.json") as f:
            return json.load(f)

    def matches(self, refs: dict, op: tuple, result) -> bool:
        """False only when a recorded reference exists and differs."""
        want = refs.get(op_key(op))
        return want is None or want == result


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "count-dense",
            "2 to 4 descents, max(I) 5 to 8: prefix, recurrence and Jacobi-Trudi walks, which must agree",
            dense_pass,
            dense_execute,
        ),
        Workload(
            "count-wide",
            "7 descents, Jacobi-Trudi only: term expansion and rect_coeff dominate, no oracle walks",
            wide_pass,
            wide_execute,
        ),
        Workload(
            "stable-coeffs",
            "closed form and coefficient extraction at 7 to 11 descents, no oracle or schur call",
            stable_pass,
            stable_execute,
        ),
        Workload(
            "verify-full",
            "the 14 verify reports at fixed grids: the only user of naive enumeration and witness walks",
            verify_pass,
            verify_execute,
        ),
    )
}
