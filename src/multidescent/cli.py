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

# Every route answers every n, m >= 1 (0 when n*m <= max(I)) within its
# budget; prefix and Jacobi-Trudi refuse the empty set.  Each route is looked
# up on its module when called, so a patched or traced binding is what runs.
ROUTES = {
    "naive": lambda ds, n, m, budget: oracle.count_naive(ds, n, m, budget),
    "prefix": lambda ds, n, m, budget: oracle.count_prefix(ds, n, m, budget),
    "recurrence": lambda ds, n, m, budget: formulas.descent_count(ds, n, m),
    "jacobi-trudi": lambda ds, n, m, budget: schur.count_via_jacobi_trudi(ds, n, m),
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

    count = sub.add_parser("count", help="count words with a given descent set")
    count.add_argument("--set", required=True, help="descent set, e.g. '2,4,5'")
    count.add_argument("--n", type=int, required=True, help="alphabet size")
    count.add_argument("--m", type=int, required=True, help="copies of each value")
    count.add_argument(
        "--method",
        choices=("all", *ROUTES),
        default="all",
        help="which route to run (default: all; a refusal becomes a skip note)",
    )
    count.add_argument(
        "--budget-cells",
        type=int,
        metavar="N",
        help="override the n*m cap on full enumeration",
    )
    count.add_argument("--format", choices=("text", "json"), default="text")
    count.set_defaults(handler=_cmd_count)

    dinf = sub.add_parser("dinf", help="stabilized count at a given alphabet size")
    dinf.add_argument("--set", required=True)
    dinf.add_argument("--n", type=int, required=True)
    dinf.add_argument("--format", choices=("text", "json"), default="text")
    dinf.set_defaults(handler=_cmd_dinf)

    coeffs = sub.add_parser(
        "coeffs", help="coefficients of the stabilized count in a binomial base"
    )
    coeffs.add_argument("--set", required=True)
    coeffs.add_argument(
        "--k", type=int, default=-1, help="base offset (default -1)"
    )
    coeffs.add_argument("--format", choices=("text", "json"), default="text")
    coeffs.set_defaults(handler=_cmd_coeffs)

    stab = sub.add_parser(
        "stabilize", help="stabilization point and a multiplicity sweep"
    )
    stab.add_argument("--set", required=True)
    stab.add_argument(
        "--n",
        type=int,
        help="alphabet size for the sweep (default: longest run + 1, the "
        "smallest size where the final strict rise is guaranteed)",
    )
    stab.add_argument("--format", choices=("text", "json"), default="text")
    stab.set_defaults(handler=_cmd_stabilize)

    ver = sub.add_parser("verify", help="run the cross-route identity suite")
    ver.add_argument(
        "--quick", action="store_true", help="smaller grids, a few seconds"
    )
    ver.add_argument("--format", choices=("text", "json"), default="text")
    ver.set_defaults(handler=_cmd_verify)

    table = sub.add_parser("table", help="grid of counts over n and m ranges")
    table.add_argument("--set", required=True)
    table.add_argument("--n-range", required=True, metavar="LO:HI")
    table.add_argument("--m-range", required=True, metavar="LO:HI")
    table.add_argument("--format", choices=("csv", "json", "text"), default="csv")
    table.set_defaults(handler=_cmd_table)

    return parser


def _cmd_count(args: argparse.Namespace) -> int:
    ds = parse_set(args.set)
    budget = None
    if args.budget_cells is not None:
        if args.budget_cells < 1:
            raise UsageError("--budget-cells must be positive")
        budget = oracle.EnumerationBudget(max_total_cells=args.budget_cells)
    chosen = ROUTES if args.method == "all" else (args.method,)
    results: dict[str, int] = {}
    refusals: list[Exception] = []
    for name in chosen:
        try:
            results[name] = ROUTES[name](ds, args.n, args.m, budget)
        except (DomainError, BudgetExceededError) as exc:
            if args.method != "all":
                raise
            refusals.append(exc)
            print(f"{name}: skipped ({exc})", file=sys.stderr)
    if not results:
        raise refusals[0]  # no count to print: exit with the first refusal's code
    agree = len(set(results.values())) <= 1
    if args.format == "json":
        payload = {
            "set": list(ds),
            "n": args.n,
            "m": args.m,
            "counts": {name: str(value) for name, value in results.items()},
            "agree": agree,
        }
        print(json.dumps(payload))
    else:
        for name, value in results.items():
            print(f"{name:<12} {value}")
    if not agree:
        print("DISAGREEMENT between routes", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_dinf(args: argparse.Namespace) -> int:
    ds = parse_set(args.set)
    if args.n < 1:
        raise UsageError("--n must be positive")
    value = formulas.stable_descent_count(ds, args.n)
    if args.format == "json":
        print(json.dumps({"set": list(ds), "n": args.n, "value": str(value)}))
    else:
        print(value)
    return EXIT_OK


def _cmd_coeffs(args: argparse.Namespace) -> int:
    ds = parse_set(args.set)
    poly = polybasis.extract_coeffs(ds, args.k)
    if args.format == "json":
        print(json.dumps({"k": args.k, "coeffs": [str(c) for c in poly.coeffs]}))
    else:
        rendered = " ".join(str(c) for c in poly.coeffs)
        print(f"offset {args.k}: {rendered}")
    return EXIT_OK


def _cmd_stabilize(args: argparse.Namespace) -> int:
    ds = parse_set(args.set)
    point = formulas.stabilization_point(ds)
    n = args.n if args.n is not None else ds.longest_run + 1
    if n < 1:
        raise UsageError("--n must be positive")
    sweep = [(m, schur.count_via_jacobi_trudi(ds, n, m)) for m in range(1, point + 3)]
    if args.format == "json":
        payload = {
            "set": list(ds),
            "stabilization": point,
            "n": n,
            "sweep": [{"m": m, "count": str(c)} for m, c in sweep],
        }
        print(json.dumps(payload))
    else:
        print(f"M = {point}")
        print(f"sweep at n = {n}:")
        for m, c in sweep:
            marker = "  (stable)" if m >= point else ""
            print(f"  m={m:<3} count={c}{marker}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    reports = verify.full_suite(quick=args.quick)
    failed = [r for r in reports if not r.passed]
    if args.format == "json":
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
        print(json.dumps(payload))
    else:
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            print(f"{status} {r.name} ({len(r.checks)} checks)")
            for c in r.failures:
                print(f"  failed: {c.claim}")
                print(f"    expected {c.expected!r}, got {c.actual!r}")
    return EXIT_VERIFY if failed else EXIT_OK


def _cmd_table(args: argparse.Namespace) -> int:
    ds = parse_set(args.set)
    n_lo, n_hi = _parse_span(args.n_range)
    m_lo, m_hi = _parse_span(args.m_range)
    rows = [
        (n, m, formulas.descent_count(ds, n, m))
        for n in range(n_lo, n_hi + 1)
        for m in range(m_lo, m_hi + 1)
    ]
    rows.sort(key=lambda row: (row[0], row[1]))
    if args.format == "json":
        payload = {
            "set": list(ds),
            "rows": [{"n": n, "m": m, "count": str(c)} for n, m, c in rows],
        }
        print(json.dumps(payload))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["n", "m", "count"])
        for n, m, c in rows:
            writer.writerow([n, m, c])
    else:
        print(f"{'n':>4} {'m':>4} {'count':>12}")
        for n, m, c in rows:
            print(f"{n:>4} {m:>4} {c:>12}")
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
