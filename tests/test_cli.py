"""Command line behavior: output shapes, exit codes, route dispatch."""

import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multidescent import cli, verify
from multidescent.core import BudgetExceededError, DescentSet
from multidescent.formulas import stable_descent_count
from multidescent.polybasis import extract_coeffs


def run_cli(*argv):
    return cli.main(list(argv))


def test_count_text_lists_all_four_routes(capsys):
    code = run_cli("count", "--set", "2", "--n", "3", "--m", "2")
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert {line.split()[0] for line in lines} == {
        "naive",
        "prefix",
        "recurrence",
        "jacobi-trudi",
    }
    assert all(line.split()[1] == "5" for line in lines)


def test_count_json_payload(capsys):
    code = run_cli(
        "count", "--set", "2", "--n", "3", "--m", "2", "--format", "json"
    )
    assert code == cli.EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["set"] == [2]
    assert payload["n"] == 3 and payload["m"] == 2
    assert payload["agree"] is True
    assert payload["counts"] == {
        "naive": "5",
        "prefix": "5",
        "recurrence": "5",
        "jacobi-trudi": "5",
    }


def test_count_single_method(capsys):
    code = run_cli(
        "count", "--set", "2", "--n", "3", "--m", "2", "--method", "prefix"
    )
    assert code == cli.EXIT_OK
    assert capsys.readouterr().out.split() == ["prefix", "5"]


def test_count_skips_inapplicable_routes_in_all_mode(capsys):
    # one cell total: no position follows the descent, and every route says 0
    code = run_cli("count", "--set", "2", "--n", "1", "--m", "1")
    captured = capsys.readouterr()
    assert code == cli.EXIT_OK
    assert captured.err == ""
    lines = captured.out.strip().splitlines()
    assert [line.split() for line in lines] == [[name, "0"] for name in cli.ROUTES]
    # every route counts the empty set's one sorted word
    code = run_cli("count", "--set", "", "--n", "3", "--m", "2")
    captured = capsys.readouterr()
    assert code == cli.EXIT_OK
    assert captured.err == ""
    assert [line.split() for line in captured.out.strip().splitlines()] == [
        [name, "1"] for name in cli.ROUTES
    ]
    # only the budget leaves a route out: naive's 90 arrangements pass 89
    code = run_cli("count", "--set", "2", "--n", "3", "--m", "2", "--budget", "89")
    captured = capsys.readouterr()
    assert code == cli.EXIT_OK
    assert captured.out.split() == [
        "prefix", "5", "recurrence", "5", "jacobi-trudi", "5"
    ]
    assert captured.err.startswith("naive: skipped (")
    assert captured.err.count("skipped") == 1


def test_count_explicit_inapplicable_route_is_a_domain_error(capsys):
    code = run_cli(
        "count", "--set", "2", "--n", "1", "--m", "1", "--method", "jacobi-trudi"
    )
    assert code == cli.EXIT_OK
    assert capsys.readouterr().out.split() == ["jacobi-trudi", "0"]
    code = run_cli("count", "--set", "", "--n", "3", "--m", "2", "--method", "prefix")
    assert code == cli.EXIT_OK
    assert capsys.readouterr().out.split() == ["prefix", "1"]
    # an empty alphabet is outside every route's domain
    code = run_cli("count", "--set", "2", "--n", "0", "--m", "1", "--method", "prefix")
    assert code == cli.EXIT_DOMAIN
    assert "domain error" in capsys.readouterr().err


def test_count_empty_set_counts_the_sorted_word(capsys):
    code = run_cli("count", "--set", "", "--n", "3", "--m", "2")
    assert code == cli.EXIT_OK
    for line in capsys.readouterr().out.strip().splitlines():
        assert line.split()[1] == "1"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_count_with_no_count_exits_with_the_refusal_code(capsys, fmt):
    code = run_cli("count", "--set", "1,2", "--n", "-3", "--m", "1", "--format", fmt)
    captured = capsys.readouterr()
    assert code == cli.EXIT_DOMAIN
    assert captured.out == ""
    assert "domain error" in captured.err


def test_count_with_no_count_exits_with_the_first_refusal_code(capsys):
    # every route passes one unit of work here, so all four are skipped
    code = run_cli("count", "--set", "2", "--n", "3", "--m", "2", "--budget", "1")
    captured = capsys.readouterr()
    assert code == cli.EXIT_BUDGET
    assert captured.out == ""
    assert captured.err.count("skipped") == 4
    assert captured.err.endswith("budget exceeded: full enumeration at n = 3, "
                                 "m = 2, more than max_work = 1\n")


def test_count_domain_error_stops_at_once(capsys):
    # every route shares one domain, so a refusal there is not a skip note
    code = run_cli("count", "--set", "1,2", "--n", "-3", "--m", "1")
    captured = capsys.readouterr()
    assert code == cli.EXIT_DOMAIN
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("domain error: ")
    assert "skipped" not in captured.err


@pytest.mark.parametrize("name", list(cli.ROUTES))
def test_every_route_shares_one_domain(name):
    route = cli.ROUTES[name]
    for n in range(1, 5):
        for m in range(1, 4):
            assert route(DescentSet(), n, m, None) == 1  # the sorted word
            for ds in verify.descent_sets_up_to(4):
                if n * m <= ds.largest:  # no position follows the last descent
                    assert route(ds, n, m, None) == 0, (ds, n, m)


def test_count_budget_refusal_and_override(capsys):
    # {1,1,2,2,3,3} has 90 arrangements
    code = run_cli(
        "count",
        "--set", "2", "--n", "3", "--m", "2",
        "--method", "naive",
        "--budget", "89",
    )
    assert code == cli.EXIT_BUDGET
    assert "more than max_work = 89" in capsys.readouterr().err

    code = run_cli(
        "count",
        "--set", "2", "--n", "3", "--m", "2",
        "--method", "naive",
        "--budget", "90",
    )
    assert code == cli.EXIT_OK
    assert capsys.readouterr().out.split()[1] == "5"


@pytest.mark.parametrize("value", ["0", "-3"])
def test_count_rejects_a_nonpositive_budget(capsys, value):
    code = run_cli("count", "--set", "2", "--n", "3", "--m", "2", "--budget", value)
    assert code == cli.EXIT_DOMAIN
    assert "max_work" in capsys.readouterr().err


@pytest.mark.parametrize("name", list(cli.ROUTES))
def test_every_route_refuses_a_tiny_budget(name):
    with pytest.raises(BudgetExceededError, match="more than max_work = 1$"):
        cli.ROUTES[name](DescentSet((2,)), 3, 2, cli.oracle.EnumerationBudget(1))


def test_count_naive_refuses_twelve_factorial_at_once():
    # 12! arrangements passed a cell cap and ran for minutes
    argv = ["count", "--set", "2", "--n", "12", "--m", "1"]
    proc = subprocess.run(
        [sys.executable, "-m", "multidescent", *argv, "--method", "naive"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == cli.EXIT_BUDGET, proc.stderr
    assert "more than max_work = 10000000" in proc.stderr
    proc = subprocess.run(
        [sys.executable, "-m", "multidescent", *argv],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert proc.stdout.split() == [
        "prefix", "65", "recurrence", "65", "jacobi-trudi", "65"
    ]
    assert "naive: skipped" in proc.stderr


def test_count_jacobi_trudi_charges_the_budget(capsys):
    argv = ["count", "--set", "3,6,9,12,15,18,21,24", "--n", "10", "--m", "4",
            "--method", "jacobi-trudi"]
    assert run_cli(*argv, "--budget", "10000") == cli.EXIT_BUDGET
    assert "more than max_work = 10000" in capsys.readouterr().err
    assert run_cli(*argv) == cli.EXIT_OK
    assert capsys.readouterr().out.split() == ["jacobi-trudi", "621815645631372507"]


def test_count_disagreement_exits_with_verify_code(capsys, monkeypatch):
    monkeypatch.setattr(
        cli.formulas, "descent_count", lambda ds, n, m, budget=None: 999
    )
    code = run_cli("count", "--set", "2", "--n", "3", "--m", "2")
    captured = capsys.readouterr()
    assert code == cli.EXIT_VERIFY
    assert "DISAGREEMENT" in captured.err


SET_TEXTS = st.one_of(
    st.sampled_from(["", " ", "0", "-1", "x", "2,x", ",", "1,,2", "3.5", "1, 2"]),
    st.lists(st.integers(-1, 6), max_size=3).map(lambda xs: ",".join(map(str, xs))),
)


@given(
    SET_TEXTS,
    st.integers(-2, 5),
    st.integers(-2, 5),
    st.sampled_from(["all", *cli.ROUTES]),
    st.sampled_from(["text", "json"]),
)
@settings(max_examples=200, deadline=None)
def test_count_fuzz_ends_in_a_contract_exit_code(set_text, n, m, method, fmt):
    # redirect_stdout, not capsys: Hypothesis rejects function-scoped fixtures
    out, err = io.StringIO(), io.StringIO()
    argv = ["count", f"--set={set_text}", f"--n={n}", f"--m={m}"]
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main([*argv, "--method", method, "--format", fmt])
    assert code in range(5), err.getvalue()
    if code == cli.EXIT_OK:
        if fmt == "json":
            counts = json.loads(out.getvalue())["counts"]
        else:
            counts = dict(line.split() for line in out.getvalue().splitlines())
        assert counts and set(counts) <= set(cli.ROUTES)


def test_dinf_text_and_json(capsys):
    assert run_cli("dinf", "--set", "2", "--n", "5") == cli.EXIT_OK
    assert capsys.readouterr().out.strip() == "14"

    assert (
        run_cli("dinf", "--set", "2", "--n", "5", "--format", "json")
        == cli.EXIT_OK
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"set": [2], "n": 5, "value": "14"}


@pytest.mark.parametrize(
    "argv", [["dinf", "--n", "60"], ["coeffs"]], ids=["dinf", "coeffs"]
)
def test_stabilized_commands_reach_twenty_five_descents(argv):
    # the closed form over {1,3,...,49} has 2**24 coarsenings
    ds = DescentSet(tuple(range(1, 50, 2)))
    odd = ",".join(map(str, ds))
    proc = subprocess.run(
        [sys.executable, "-m", "multidescent", argv[0], "--set", odd, *argv[1:]],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    if argv[0] == "dinf":
        want = [str(stable_descent_count(ds, 60))]
    else:
        want = ["offset", "-1:", *map(str, extract_coeffs(ds, -1).coeffs)]
    assert proc.stdout.split() == want


def test_dinf_at_a_huge_descent():
    # binom_poly once multiplied out 3 million factors here
    proc = subprocess.run(
        [sys.executable, "-m", "multidescent", "dinf", "--set", "3000000", "--n", "2"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["3000000"]


def test_count_prefix_has_no_recursion_ceiling():
    proc = subprocess.run(
        [
            sys.executable, "-m", "multidescent",
            "count", "--set", "1100", "--n", "2", "--m", "1100", "--method", "prefix",
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["prefix", "1100"]


def test_count_recurrence_reaches_a_descent_at_1100():
    proc = subprocess.run(
        [
            sys.executable, "-m", "multidescent",
            "count", "--set", "1100", "--n", "1200", "--m", "1",
            "--method", "recurrence",
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["recurrence", str(comb(1200, 1100) - 1)]


def test_count_prefix_ends_within_its_budget_at_a_descent_at_1100():
    # a scan past the used-up values once followed every word uncharged:
    # the default budget's walk then ran for minutes
    proc = subprocess.run(
        [
            sys.executable, "-m", "multidescent",
            "count", "--set", "1100", "--n", "1200", "--m", "1",
            "--method", "prefix",
        ],
        capture_output=True,
        text=True,
        timeout=30,
    )
    if proc.returncode == cli.EXIT_OK:
        assert proc.stdout.split() == ["prefix", str(comb(1200, 1100) - 1)]
    else:
        assert proc.returncode == cli.EXIT_BUDGET, proc.stderr
        assert "more than max_work = 10000000" in proc.stderr


def test_coeffs_refuses_a_dense_set_within_its_budget():
    # 400 descents up to 799: its 1602 closed-form samples once took 424 s
    odd = ",".join(str(p) for p in range(1, 800, 2))
    proc = subprocess.run(
        [sys.executable, "-m", "multidescent", "coeffs", "--set", odd],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == cli.EXIT_BUDGET, proc.stderr
    assert "more than max_work = 10000000" in proc.stderr


def test_count_skips_the_walks_at_a_huge_alphabet():
    # the walks would place each of 10^12 values: both are refused before
    # they allocate, and the recurrence and jacobi-trudi still answer
    proc = subprocess.run(
        [
            sys.executable, "-m", "multidescent",
            "count", "--set", "2", "--n", "1000000000000", "--m", "1",
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    expected = str(comb(10**12, 2) - 1)
    assert proc.stdout.split() == ["recurrence", expected, "jacobi-trudi", expected]
    assert "naive: skipped" in proc.stderr
    assert "prefix: skipped (values placed by a word walk" in proc.stderr


def test_count_jacobi_trudi_answers_a_huge_alphabet():
    # walking the n columns would not end; the timeout turns that into a failure
    proc = subprocess.run(
        [
            sys.executable, "-m", "multidescent",
            "count", "--set", "5", "--n", "99999999999", "--m", "1",
            "--method", "jacobi-trudi",
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["jacobi-trudi", str(comb(99999999999, 5) - 1)]


def test_count_passes_the_budget_to_every_route(capsys, monkeypatch):
    seen = []
    def record(ds, n, m, budget):
        seen.append(budget)
        return 5

    for owner, name in [
        (cli.oracle, "count_naive"),
        (cli.oracle, "count_prefix"),
        (cli.formulas, "descent_count"),
        (cli.schur, "count_via_jacobi_trudi"),
    ]:
        monkeypatch.setattr(owner, name, record)
    run_cli("count", "--set", "2", "--n", "3", "--m", "2", "--budget", "6")
    assert seen == [cli.oracle.EnumerationBudget(max_work=6)] * 4


def test_dinf_rejects_nonpositive_n(capsys):
    assert run_cli("dinf", "--set", "2", "--n", "0") == cli.EXIT_USAGE


def test_coeffs_json_payload(capsys):
    code = run_cli("coeffs", "--set", "2", "--k", "0", "--format", "json")
    assert code == cli.EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"k": 0, "coeffs": ["-1", "1", "1"]}


def test_coeffs_default_offset_is_minus_one(capsys):
    code = run_cli("coeffs", "--set", "2")
    assert code == cli.EXIT_OK
    assert capsys.readouterr().out.strip() == "offset -1: 0 2 1"


def test_coeffs_empty_set_is_a_domain_error(capsys):
    assert run_cli("coeffs", "--set", "") == cli.EXIT_DOMAIN


def test_stabilize_reports_point_and_sweep(capsys):
    code = run_cli("stabilize", "--set", "4,8,9", "--n", "4")
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "M = 7"
    assert lines[1] == "sweep at n = 4:"
    counts = [int(line.split("count=")[1].split()[0]) for line in lines[2:]]
    assert counts == [0, 0, 286, 962, 1330, 1450, 1474, 1474, 1474]
    assert sum("(stable)" in line for line in lines) == 3


def test_stabilize_json(capsys):
    code = run_cli("stabilize", "--set", "4,8,9", "--n", "4", "--format", "json")
    assert code == cli.EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["stabilization"] == 7
    assert payload["n"] == 4
    assert [row["m"] for row in payload["sweep"]] == list(range(1, 10))
    assert payload["sweep"][-1]["count"] == "1474"


def test_stabilize_default_alphabet_clears_the_longest_run(capsys):
    code = run_cli("stabilize", "--set", "1,2")
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "sweep at n = 3:" in out


def test_table_csv_output(capsys):
    code = run_cli("table", "--set", "1", "--n-range", "1:3", "--m-range", "1:2")
    assert code == cli.EXIT_OK
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0] == "n,m,count"
    assert rows[1:] == ["1,1,0", "1,2,0", "2,1,1", "2,2,1", "3,1,2", "3,2,2"]


def test_table_rows_sorted_by_n_then_m(capsys):
    code = run_cli(
        "table",
        "--set", "2", "--n-range", "1:2", "--m-range", "1:2",
        "--format", "json",
    )
    assert code == cli.EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    keys = [(row["n"], row["m"]) for row in payload["rows"]]
    assert keys == sorted(keys)


def test_table_counts_a_wide_set_with_jacobi_trudi():
    # the recurrence passed the default budget here after seconds (exit 4)
    wide = ",".join(map(str, range(2, 25, 2)))
    proc = subprocess.run(
        [
            sys.executable, "-m", "multidescent",
            "table", "--set", wide, "--n-range", "26:26", "--m-range", "2:2",
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["n,m,count", "26,2,25419262800779100039282625585"]


def test_table_rejects_backwards_range(capsys):
    code = run_cli("table", "--set", "1", "--n-range", "3:1", "--m-range", "1:2")
    assert code == cli.EXIT_USAGE


def test_usage_errors_exit_one(capsys):
    assert run_cli("count", "--set", "2,x", "--n", "3", "--m", "1") == 1
    assert run_cli("count", "--set", "0", "--n", "3", "--m", "1") == 1
    assert run_cli("count", "--set", "2") == 1  # missing --n/--m
    assert run_cli("bogus") == 1
    assert run_cli() == 1


def test_help_exits_zero(capsys):
    assert run_cli("--help") == 0
    assert "count" in capsys.readouterr().out


def test_verify_quick_passes(capsys):
    code = run_cli("verify", "--quick")
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    lines = out.strip().splitlines()
    assert lines and all(line.startswith("PASS") for line in lines)


def test_verify_failure_exits_three(capsys, monkeypatch):
    from multidescent.verify import Check, Report

    broken = Report("rigged", (Check("always wrong", 0, 1),))
    monkeypatch.setattr(cli.verify, "full_suite", lambda quick: [broken])
    code = run_cli("verify", "--quick")
    captured = capsys.readouterr()
    assert code == cli.EXIT_VERIFY
    assert "FAIL rigged" in captured.out
    assert "always wrong" in captured.out


@pytest.mark.parametrize(
    "launch",
    [["-c", "from multidescent.cli import console; console()"], ["-m", "multidescent"]],
    ids=["console", "module"],
)
def test_installed_entry_point_round_trip(launch):
    proc = subprocess.run(
        [
            sys.executable, *launch,
            "count", "--set", "2", "--n", "3", "--m", "2", "--format", "json",
        ],
        capture_output=True,
        text=True,
    )
    # SystemExit code propagates through the console wrapper
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["agree"] is True


# Exact bytes of each subcommand and format, recorded before the handlers
# shared one printer: stdout (the CSV keeps its \r\n line ends), stderr and
# the exit code.
_GOLDEN = {
    "count-text": (
        "count --set 2,4 --n 3 --m 3",
        0,
        b'naive        16\n'
        b'prefix       16\n'
        b'recurrence   16\n'
        b'jacobi-trudi 16\n',
        b'',
    ),
    "count-json": (
        "count --set 2,4 --n 3 --m 3 --format json",
        0,
        b'{"set": [2, 4], "n": 3, "m": 3, "counts": {"naive": "16",'
        b' "prefix": "16", "recurrence": "16", "jacobi-trudi": "16"},'
        b' "agree": true}\n',
        b'',
    ),
    "count-skips-naive": (
        "count --set 2 --n 12 --m 1",
        0,
        b'prefix       65\n'
        b'recurrence   65\n'
        b'jacobi-trudi 65\n',
        b'naive: skipped (full enumeration at n = 12, m = 1,'
        b' more than max_work = 10000000)\n',
    ),
    "dinf-text": (
        "dinf --set 2,4,5 --n 7",
        0,
        b'1581\n',
        b'',
    ),
    "dinf-json": (
        "dinf --set 2,4,5 --n 7 --format json",
        0,
        b'{"set": [2, 4, 5], "n": 7, "value": "1581"}\n',
        b'',
    ),
    "coeffs-text": (
        "coeffs --set 2,4,5 --k -1",
        0,
        b'offset -1: 0 0 8 36 43 16\n',
        b'',
    ),
    "coeffs-json": (
        "coeffs --set 2,4,5 --k -1 --format json",
        0,
        b'{"k": -1, "coeffs": ["0", "0", "8", "36", "43", "16"]}\n',
        b'',
    ),
    "stabilize-text": (
        "stabilize --set 4,8,9 --n 4",
        0,
        b'M = 7\n'
        b'sweep at n = 4:\n'
        b'  m=1   count=0\n'
        b'  m=2   count=0\n'
        b'  m=3   count=286\n'
        b'  m=4   count=962\n'
        b'  m=5   count=1330\n'
        b'  m=6   count=1450\n'
        b'  m=7   count=1474  (stable)\n'
        b'  m=8   count=1474  (stable)\n'
        b'  m=9   count=1474  (stable)\n',
        b'',
    ),
    "stabilize-json": (
        "stabilize --set 4,8,9 --n 4 --format json",
        0,
        b'{"set": [4, 8, 9], "stabilization": 7, "n": 4, "sweep": [{"m": 1,'
        b' "count": "0"}, {"m": 2, "count": "0"}, {"m": 3, "count": "286"},'
        b' {"m": 4, "count": "962"}, {"m": 5, "count": "1330"}, {"m": 6,'
        b' "count": "1450"}, {"m": 7, "count": "1474"}, {"m": 8,'
        b' "count": "1474"}, {"m": 9, "count": "1474"}]}\n',
        b'',
    ),
    "table-csv": (
        "table --set 1 --n-range 1:3 --m-range 1:2 --format csv",
        0,
        b'n,m,count\r\n'
        b'1,1,0\r\n'
        b'1,2,0\r\n'
        b'2,1,1\r\n'
        b'2,2,1\r\n'
        b'3,1,2\r\n'
        b'3,2,2\r\n',
        b'',
    ),
    "table-json": (
        "table --set 1 --n-range 1:3 --m-range 1:2 --format json",
        0,
        b'{"set": [1], "rows": [{"n": 1, "m": 1, "count": "0"}, {"n": 1,'
        b' "m": 2, "count": "0"}, {"n": 2, "m": 1, "count": "1"}, {"n": 2,'
        b' "m": 2, "count": "1"}, {"n": 3, "m": 1, "count": "2"}, {"n": 3,'
        b' "m": 2, "count": "2"}]}\n',
        b'',
    ),
    "table-text": (
        "table --set 1 --n-range 1:3 --m-range 1:2 --format text",
        0,
        b'   n    m        count\n'
        b'   1    1            0\n'
        b'   1    2            0\n'
        b'   2    1            1\n'
        b'   2    2            1\n'
        b'   3    1            2\n'
        b'   3    2            2\n',
        b'',
    ),
    "verify-text": (
        "verify --quick",
        0,
        b'PASS four-route agreement (103 checks)\n'
        b'PASS multiplicity monotonicity (14 checks)\n'
        b'PASS stabilization point (74 checks)\n'
        b'PASS stabilized closed form (90 checks)\n'
        b'PASS last-value formula (72 checks)\n'
        b'PASS coefficient windows (143 checks)\n'
        b'PASS alternating prefixes (106 checks)\n'
        b'PASS coefficient sign survey (90 checks)\n'
        b'PASS single-descent closed form (24 checks)\n'
        b'PASS polynomial in the alphabet size (14 checks)\n'
        b'PASS ribbon construction (22 checks)\n'
        b'PASS basis shift round trips (98 checks)\n'
        b'PASS coefficient evaluation (60 checks)\n'
        b'PASS witness decompositions (60 checks)\n',
        b'',
    ),
    "verify-json": (
        "verify --quick --format json",
        0,
        b'[{"name": "four-route agreement", "passed": true, "checks": 103,'
        b' "failures": []}, {"name": "multiplicity monotonicity",'
        b' "passed": true, "checks": 14, "failures": []},'
        b' {"name": "stabilization point", "passed": true, "checks": 74,'
        b' "failures": []}, {"name": "stabilized closed form",'
        b' "passed": true, "checks": 90, "failures": []},'
        b' {"name": "last-value formula", "passed": true, "checks": 72,'
        b' "failures": []}, {"name": "coefficient windows", "passed": true,'
        b' "checks": 143, "failures": []}, {"name": "alternating prefixes",'
        b' "passed": true, "checks": 106, "failures": []},'
        b' {"name": "coefficient sign survey", "passed": true, "checks": 90,'
        b' "failures": []}, {"name": "single-descent closed form",'
        b' "passed": true, "checks": 24, "failures": []},'
        b' {"name": "polynomial in the alphabet size", "passed": true,'
        b' "checks": 14, "failures": []}, {"name": "ribbon construction",'
        b' "passed": true, "checks": 22, "failures": []},'
        b' {"name": "basis shift round trips", "passed": true, "checks": 98,'
        b' "failures": []}, {"name": "coefficient evaluation",'
        b' "passed": true, "checks": 60, "failures": []},'
        b' {"name": "witness decompositions", "passed": true, "checks": 60,'
        b' "failures": []}]\n',
        b'',
    ),
}


@pytest.mark.parametrize("case", _GOLDEN)
def test_output_bytes_are_pinned(case):
    argv, code, out, err = _GOLDEN[case]
    proc = subprocess.run(
        [sys.executable, "-m", "multidescent", *argv.split()],
        capture_output=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
