"""Span tracing of the library's layers, done from outside the library.

The tracer replaces public functions with wrappers for the duration of a
``with tracer.installed():`` block and restores them afterwards.  Each call
becomes a span with a parent (the innermost span open when it started), so
a layer's self time is its span time minus the time of its child spans.
Spans are folded into per-name totals as they close rather than kept one
by one: the closed-form route makes millions of ``binom_poly`` calls.

Callers bind names at import (``from .oracle import count_content``), so a
function is wrapped at every module attribute that callers look up, not
only where it is defined.  Generators are timed across each ``next()`` and
their items are counted.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

from multidescent import core, formulas, oracle, polybasis, schur, verify

REPORTS = (
    "agreement_report",
    "monotonicity_report",
    "stabilization_report",
    "stable_form_report",
    "last_fixed_report",
    "window_report",
    "prefix_signs_report",
    "sign_survey_report",
    "single_descent_report",
    "polynomiality_report",
    "ribbon_report",
    "basis_roundtrip_report",
    "evaluation_report",
    "witness_split_report",
)

WITNESS = (
    "count_coeff_witnesses",
    "count_onto_upper",
    "count_onto_full",
    "count_last_fixed",
)

# (owner, attribute, span name, is generator).  Several bindings of one
# function share a span name.  ``verify`` reaches oracle, formulas, schur
# and polybasis through module attributes, so the defining-module entries
# cover its calls too.
TARGETS = (
    (core, "compositions", "core.compositions", True),
    (formulas, "compositions", "core.compositions", True),
    (core, "block_sums", "core.block_sums", False),
    (formulas, "block_sums", "core.block_sums", False),
    (oracle, "count_content", "oracle.count_content", False),
    (formulas, "count_content", "oracle.count_content", False),
    (oracle, "count_prefix", "oracle.count_prefix", False),
    (oracle, "count_naive", "oracle.count_naive", False),
    *((oracle, name, "oracle.witness", False) for name in WITNESS),
    (polybasis, "count_coeff_witnesses", "oracle.witness", False),
    (formulas, "descent_count", "formulas.descent_count", False),
    (formulas, "binom_poly", "formulas.binom_poly", False),
    (polybasis, "binom_poly", "formulas.binom_poly", False),
    (formulas, "stable_descent_count", "formulas.stable_descent_count", False),
    (polybasis, "stable_descent_count", "formulas.stable_descent_count", False),
    (schur, "ribbon_shape", "schur.ribbon_shape", False),
    (schur, "jacobi_trudi_terms", "schur.jacobi_trudi_terms", True),
    (schur, "rect_coeff", "schur.rect_coeff", False),
    (schur, "count_via_jacobi_trudi", "schur.count_via_jacobi_trudi", False),
    (polybasis, "extract_coeffs", "polybasis.extract_coeffs", False),
    (polybasis, "shift_basis", "polybasis.shift_basis", False),
    (polybasis.BinomialBasisPoly, "evaluate", "polybasis.evaluate", False),
    *((verify, name, f"verify.{name}", False) for name in REPORTS),
)

ORACLE_SPANS = (
    "oracle.count_content",
    "oracle.count_prefix",
    "oracle.count_naive",
    "oracle.witness",
)


class Span:
    """Per-name totals of closed spans."""

    __slots__ = ("calls", "yielded", "total_s", "self_s", "budget_exceeded")

    def __init__(self) -> None:
        self.calls = 0
        self.yielded = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.budget_exceeded = 0


class Tracer:
    """Collects span totals, parent-child call counts and a few argument
    tallies while installed; reads them out with :meth:`per_layer`."""

    def __init__(self) -> None:
        self.spans: dict[str, Span] = {}
        # (parent span name or "", child span name) -> [calls, yielded]
        self.edges: dict[tuple[str, str], list[int]] = {}
        self.rect_keys: set[tuple] = set()
        self.checks = 0
        self._stack: list[list] = []  # open spans: [name, start, child_s]

    def _span(self, name: str) -> Span:
        span = self.spans.get(name)
        if span is None:
            span = self.spans[name] = Span()
        return span

    def _edge(self, name: str) -> list[int]:
        key = (self._stack[-1][0] if self._stack else "", name)
        edge = self.edges.get(key)
        if edge is None:
            edge = self.edges[key] = [0, 0]
        return edge

    def _close(self, span: Span) -> None:
        end = time.perf_counter()
        _, start, child_s = self._stack.pop()
        duration = end - start
        span.total_s += duration
        span.self_s += duration - child_s
        if self._stack:
            self._stack[-1][2] += duration

    def _wrap_function(self, name: str, fn):
        span = self._span(name)
        is_rect = name == "schur.rect_coeff"
        is_report = name.startswith("verify.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span.calls += 1
            self._edge(name)[0] += 1
            if is_rect:  # (degrees, n, m): the distinct problems solved
                self.rect_keys.add((tuple(sorted(args[0])), args[1:]))
            self._stack.append([name, time.perf_counter(), 0.0])
            try:
                value = fn(*args, **kwargs)
                if is_report:
                    self.checks += len(value.checks)
                return value
            except core.BudgetExceededError:
                span.budget_exceeded += 1
                raise
            finally:
                self._close(span)

        return traced

    def _wrap_generator(self, name: str, fn):
        span = self._span(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span.calls += 1
            edge = self._edge(name)
            edge[0] += 1
            items = fn(*args, **kwargs)
            while True:
                self._stack.append([name, time.perf_counter(), 0.0])
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self._close(span)
                span.yielded += 1
                edge[1] += 1
                yield item

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, is_gen in TARGETS:
                original = owner.__dict__[attr]
                wrap = self._wrap_generator if is_gen else self._wrap_function
                setattr(owner, attr, wrap(name, original))
                saved.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self._stack.clear()

    def per_layer(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, as name -> (value, unit)."""
        s = self._span
        out: dict[str, tuple[float, str]] = {}

        def put(name: str, value: float, unit: str) -> None:
            out[name] = (value, unit)

        put("core.compositions.calls", s("core.compositions").calls, "count")
        put("core.compositions.yielded", s("core.compositions").yielded, "count")
        put("core.block_sums.calls", s("core.block_sums").calls, "count")
        put("core.block_sums.s", s("core.block_sums").total_s, "s")
        for group in ("count_content", "count_prefix", "count_naive", "witness"):
            put(f"oracle.{group}.calls", s(f"oracle.{group}").calls, "count")
            put(f"oracle.{group}.s", s(f"oracle.{group}").total_s, "s")
        put(
            "oracle.budget_exceeded",
            sum(s(name).budget_exceeded for name in ORACLE_SPANS),
            "count",
        )
        put("formulas.descent_count.self_s", s("formulas.descent_count").self_s, "s")
        walks = self.edges.get(("formulas.descent_count", "oracle.count_content"), [0, 0])[0]
        contents = self.edges.get(("formulas.descent_count", "core.compositions"), [0, 0])[1]
        put(
            "formulas.content_reuse_ratio",
            1 - walks / contents if contents else 0.0,
            "ratio",
        )
        put("formulas.binom_poly.calls", s("formulas.binom_poly").calls, "count")
        put("formulas.binom_poly.s", s("formulas.binom_poly").total_s, "s")
        sdc = s("formulas.stable_descent_count")
        put("formulas.stable_descent_count.calls", sdc.calls, "count")
        put("formulas.stable_descent_count.self_s", sdc.self_s, "s")
        put("schur.ribbon_shape.s", s("schur.ribbon_shape").total_s, "s")
        terms = s("schur.jacobi_trudi_terms")
        put("schur.jacobi_trudi_terms.yielded", terms.yielded, "count")
        put("schur.jacobi_trudi_terms.s", terms.total_s, "s")
        rect = s("schur.rect_coeff")
        put("schur.rect_coeff.calls", rect.calls, "count")
        put("schur.rect_coeff.s", rect.total_s, "s")
        put(
            "schur.rect_coeff.distinct_ratio",
            len(self.rect_keys) / rect.calls if rect.calls else 0.0,
            "ratio",
        )
        extract = s("polybasis.extract_coeffs")
        put("polybasis.extract_coeffs.calls", extract.calls, "count")
        put("polybasis.extract_coeffs.self_s", extract.self_s, "s")
        put("polybasis.shift_basis.s", s("polybasis.shift_basis").total_s, "s")
        put("polybasis.evaluate.calls", s("polybasis.evaluate").calls, "count")
        for report in REPORTS:
            put(f"verify.{report}.s", s(f"verify.{report}").total_s, "s")
        put("verify.checks", self.checks, "count")
        return out
