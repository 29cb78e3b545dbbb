"""Command line front end.

Subcommands: count (all four routes), dinf (stabilized value), coeffs
(binomial-base coefficients), stabilize (stabilization point and sweep),
verify (cross-route identity suite), table (count grids).  Counts in JSON
output are decimal strings so arbitrarily large values survive parsers that
read numbers as floats.

Exit codes: 0 success, 1 usage error, 2 domain error, 3 verification
failure, 4 budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import Iterable

from . import formulas, oracle, polybasis, schur, verify
from .core import BudgetExceededError, DescentSet, DomainError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_VERIFY = 3
EXIT_BUDGET = 4

# Each route takes (descents, n, m, budget) and answers every descent set, the
# empty one too, at every n, m >= 1 within the budget.  Each is looked up on its
# module when called, so a patched or traced binding is what runs.
ROUTES = {
    "naive": lambda *args: oracle.count_naive(*args),
    "prefix": lambda *args: oracle.count_prefix(*args),
    "recurrence": lambda *args: formulas.descent_count(*args),
    "jacobi-trudi": lambda *args: schur.count_via_jacobi_trudi(*args),
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; route through UsageError so
    # the contract code 1 is returned instead.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def parse_set(text: str) -> DescentSet:
    """Parse a comma-separated descent set such as '2,4,5'; '' is empty."""
    text = text.strip()
    if not text:
        return DescentSet()
    try:
        values = [int(piece) for piece in text.split(",")]
    except ValueError:
        raise UsageError(
            f"cannot parse descent set {text!r}; expected comma-separated "
            f"positive integers like '2,4,5'"
        ) from None
    if any(v < 1 for v in values):
        raise UsageError("descent positions must be positive integers")
    return DescentSet(values)


def _parse_span(text: str) -> tuple[int, int]:
    try:
        lo_text, hi_text = text.split(":")
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise UsageError(
            f"cannot parse range {text!r}; expected 'LO:HI' like '1:6'"
        ) from None
    if lo < 1 or hi < lo:
        raise UsageError(f"range {text!r} must satisfy 1 <= LO <= HI")
    return lo, hi


def build_parser() -> _Parser:
    parser = _Parser(prog="multidescent", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, formats=("text", "json"), takes_set=True, **opts):
        # --set (all but verify; parsed before the handler runs), then each
        # option under its attribute name (n_range is --n-range), then --format
        cmd = sub.add_parser(name, help=help)
        run = handler
        if takes_set:
            cmd.add_argument("--set", required=True, help="descent set, e.g. '2,4,5'")
            run = lambda args: handler(args, parse_set(args.set))
        for dest, settings in opts.items():
            cmd.add_argument("--" + dest.replace("_", "-"), **settings)
        cmd.add_argument("--format", choices=formats, default=formats[0])
        cmd.set_defaults(handler=run)

    command(
        "count", _cmd_count, "count words with a given descent set",
        n=dict(type=int, required=True, help="alphabet size"),
        m=dict(type=int, required=True, help="copies of each value"),
        method=dict(
            choices=("all", *ROUTES),
            default="all",
            help="which route to run (default: all; one over budget is skipped)",
        ),
        budget=dict(
            type=int,
            metavar="N",
            help=f"cap on each route's work (default {oracle.DEFAULT_BUDGET.max_work})",
        ),
    )
    command(
        "dinf", _cmd_dinf, "stabilized count at a given alphabet size",
        n=dict(type=int, required=True),
    )
    command(
        "coeffs", _cmd_coeffs, "coefficients of the stabilized count in a binomial base",
        k=dict(type=int, default=-1, help="base offset (default -1)"),
    )
    command(
        "stabilize", _cmd_stabilize, "stabilization point and a multiplicity sweep",
        n=dict(
            type=int,
            help="alphabet size for the sweep (default: longest run + 1, the "
            "smallest size where the final strict rise is guaranteed)",
        ),
    )
    command(
        "verify", _cmd_verify, "run the cross-route identity suite", takes_set=False,
        quick=dict(action="store_true", help="smaller grids"),
    )
    command(
        "table", _cmd_table, "grid of counts over n and m ranges",
        formats=("csv", "json", "text"),
        n_range=dict(required=True, metavar="LO:HI"),
        m_range=dict(required=True, metavar="LO:HI"),
    )
    return parser


def _show(args: argparse.Namespace, payload: object, lines: Iterable, rows=()) -> None:
    """Print one command's answer in its ``--format``: ``payload`` as one
    JSON line, ``rows`` through the csv module (its lines end in \\r\\n),
    or else ``lines`` as text."""
    if args.format == "json":
        print(json.dumps(payload))
    elif args.format == "csv":
        csv.writer(sys.stdout).writerows(rows)
    else:
        sys.stdout.writelines(f"{line}\n" for line in lines)


def _cmd_count(args: argparse.Namespace, ds: DescentSet) -> int:
    budget = None if args.budget is None else oracle.EnumerationBudget(args.budget)
    chosen = ROUTES if args.method == "all" else (args.method,)
    results: dict[str, int] = {}
    refusals: list[BudgetExceededError] = []
    for name in chosen:
        try:
            results[name] = ROUTES[name](ds, args.n, args.m, budget)
        except BudgetExceededError as exc:
            if args.method != "all":
                raise
            refusals.append(exc)
            print(f"{name}: skipped ({exc})", file=sys.stderr)
    if not results:
        raise refusals[0]  # no count to print: exit with the budget's code
    agree = len(set(results.values())) <= 1
    payload = {
        "set": list(ds),
        "n": args.n,
        "m": args.m,
        "counts": {name: str(value) for name, value in results.items()},
        "agree": agree,
    }
    _show(args, payload, (f"{name:<12} {value}" for name, value in results.items()))
    if not agree:
        print("DISAGREEMENT between routes", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_dinf(args: argparse.Namespace, ds: DescentSet) -> int:
    if args.n < 1:
        raise UsageError("--n must be positive")
    value = formulas.stable_descent_count(ds, args.n)
    _show(args, {"set": list(ds), "n": args.n, "value": str(value)}, [value])
    return EXIT_OK


def _cmd_coeffs(args: argparse.Namespace, ds: DescentSet) -> int:
    coeffs = [str(c) for c in polybasis.extract_coeffs(ds, args.k).coeffs]
    text = f"offset {args.k}: {' '.join(coeffs)}"
    _show(args, {"k": args.k, "coeffs": coeffs}, [text])
    return EXIT_OK


def _cmd_stabilize(args: argparse.Namespace, ds: DescentSet) -> int:
    point = formulas.stabilization_point(ds)
    n = args.n if args.n is not None else ds.longest_run + 1
    if n < 1:
        raise UsageError("--n must be positive")
    sweep = [(m, schur.count_via_jacobi_trudi(ds, n, m)) for m in range(1, point + 3)]
    payload = {
        "set": list(ds),
        "stabilization": point,
        "n": n,
        "sweep": [{"m": m, "count": str(c)} for m, c in sweep],
    }
    lines = [f"M = {point}", f"sweep at n = {n}:"]
    for m, c in sweep:
        marker = "  (stable)" if m >= point else ""
        lines.append(f"  m={m:<3} count={c}{marker}")
    _show(args, payload, lines)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    reports = verify.full_suite(quick=args.quick)
    payload = [
        {
            "name": r.name,
            "passed": r.passed,
            "checks": len(r.checks),
            "failures": [
                {
                    "claim": c.claim,
                    "expected": str(c.expected),
                    "actual": str(c.actual),
                }
                for c in r.failures
            ],
        }
        for r in reports
    ]
    lines = []
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status} {r.name} ({len(r.checks)} checks)")
        for c in r.failures:
            lines.append(f"  failed: {c.claim}")
            lines.append(f"    expected {c.expected!r}, got {c.actual!r}")
    _show(args, payload, lines)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY


def _cmd_table(args: argparse.Namespace, ds: DescentSet) -> int:
    n_lo, n_hi = _parse_span(args.n_range)
    m_lo, m_hi = _parse_span(args.m_range)
    rows = [
        (n, m, schur.count_via_jacobi_trudi(ds, n, m))
        for n in range(n_lo, n_hi + 1)
        for m in range(m_lo, m_hi + 1)
    ]
    payload = {
        "set": list(ds),
        "rows": [{"n": n, "m": m, "count": str(c)} for n, m, c in rows],
    }
    rows.insert(0, ("n", "m", "count"))
    _show(args, payload, (f"{n:>4} {m:>4} {c:>12}" for n, m, c in rows), rows)
    return EXIT_OK


def main(argv: Iterable[str] | None = None) -> int:
    args_list = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(args_list)
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return EXIT_OK if code in (0, None) else EXIT_USAGE


def console() -> None:
    raise SystemExit(main())
