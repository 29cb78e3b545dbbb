"""The verification suite itself: structure, the coefficient laws, refusals
of empty grids and a fast smoke pass."""

import hashlib

import pytest

from multidescent import oracle, polybasis, verify
from multidescent.core import DescentSet, DomainError
from multidescent.verify import Check, Report


def _checks_of(report, ds):
    return [c for c in report.checks if c.claim.startswith(f"{ds}:")]


def test_descent_sets_up_to_enumerates_the_power_set():
    sets = verify.descent_sets_up_to(4)
    assert len(sets) == 2**4 - 1
    assert len(set(sets)) == len(sets)
    assert DescentSet((1, 3, 4)) in sets
    assert all(ds.largest <= 4 for ds in sets)


def test_quick_suite_passes_every_report():
    reports = verify.full_suite(quick=True)
    assert len(reports) == 14
    names = [r.name for r in reports]
    assert len(set(names)) == len(names)
    for report in reports:
        assert report.checks, report.name
        assert report.passed, (report.name, report.failures[:3])


def test_agreement_report_covers_all_three_or_four_routes():
    report = verify.agreement_report(top=2, n_max=2, m_max=2, cells_max=4)
    claims = " ".join(check.claim for check in report.checks)
    assert "prefix route" in claims
    assert "recurrence route" in claims
    assert "determinant route" in claims
    assert report.passed


def test_agreement_report_checks_the_bench_grid_in_its_recorded_order():
    # sha256 of the (claim, expected, actual) triples as counted with one
    # full enumeration per descent set
    report = verify.agreement_report(top=4, n_max=4, m_max=3, cells_max=12)
    triples = [(c.claim, c.expected, c.actual) for c in report.checks]
    assert len(triples) == 457
    assert hashlib.sha256(repr(triples).encode()).hexdigest() == (
        "405a36844fd6b9b1175f502c51f0142b04adf1d4f24b0fb1efd45a3ef767503b"
    )
    assert report.passed


@pytest.mark.parametrize(
    "name,checks,digest",
    [
        (
            "last_fixed_report",
            1662,
            "1a4fbb2f5068d0f121e6341f9373354f87bed53ac09c0e4cf1f9e22552540230",
        ),
        (
            "window_report",
            1919,
            "42e234ff1b02d42f18d8d965069359444a9559e2fa1b7ee174c466c4b5d84ec1",
        ),
        (
            "witness_split_report",
            930,
            "333185cbf4f6656409124c3d28112749432bea0279cd9fd92de3ada8e48a297e",
        ),
    ],
)
def test_walk_reports_check_their_default_grids_in_their_recorded_order(
    name, checks, digest
):
    # sha256 of the (claim, expected, actual) triples of the three reports
    # the witness and last-value walks feed, at their default grids
    report = getattr(verify, name)()
    triples = [(c.claim, c.expected, c.actual) for c in report.checks]
    assert len(triples) == checks
    assert hashlib.sha256(repr(triples).encode()).hexdigest() == digest
    assert report.passed


def test_agreement_report_default_grid_is_wider_than_the_bench_grid():
    report = verify.agreement_report()
    assert len(report.checks) == 5349
    assert report.passed


def test_single_descent_report_small_grid():
    report = verify.single_descent_report(a_max=3, n_max=5)
    assert len(report.checks) == 15
    assert report.passed


def test_window_report_passes_and_is_structured():
    report = verify.window_report(top=4)
    assert isinstance(report, Report)
    assert report.passed
    assert report.failures == ()
    assert all(isinstance(c, Check) for c in report.checks)
    # per set, one degree check plus a window claim and a witness claim per index
    for ds in verify.descent_sets_up_to(4):
        assert len(_checks_of(report, ds)) == 1 + 2 * (ds.largest + 1), ds
    assert len(_checks_of(report, DescentSet((2, 4)))) == 1 + 2 * 5


def test_window_report_single_element_set():
    report = verify.window_report(top=1)
    assert report.passed
    assert len(report.checks) == 1 + 2 * 2
    assert polybasis.extract_coeffs(DescentSet((1,)), -1).coeffs == (0, 1)


def test_window_report_flags_a_zero_inside_the_window(monkeypatch):
    # {2} has window [1,2]; zeroing coefficient 1 must fail its positivity
    # claim, not only the witness claim
    real = polybasis.extract_coeffs

    def rigged(ds, offset):
        coeffs = list(real(ds, offset).coeffs)
        coeffs[ds.longest_run] = 0
        return polybasis.BinomialBasisPoly(offset, tuple(coeffs))

    monkeypatch.setattr(polybasis, "extract_coeffs", rigged)
    failed = [c.claim for c in verify.window_report(top=2).failures]
    assert "{2}: coefficient 1 inside window [1,2] is positive" in failed


def _failed(report):
    return {c.claim for c in report.failures}


def test_a_wrong_witness_table_fails_the_window_and_split_reports(monkeypatch):
    # one too many onto-upper witnesses at the largest index of every set
    real = oracle.witness_counts

    def rigged(ds):
        table = list(real(ds))
        upper, full = table[-1]
        table[-1] = (upper + 1, full)
        return tuple(table)

    monkeypatch.setattr(oracle, "witness_counts", rigged)
    assert "{2}: coefficient 2 equals the witness count" in _failed(
        verify.window_report(top=2)
    )
    assert "{2} i=2: witnesses split by whether value 1 appears" in _failed(
        verify.witness_split_report(top=2)
    )


def test_a_wrong_last_value_tally_fails_last_fixed_and_split_reports(monkeypatch):
    # one too many words ending in n, for every set and n
    real = oracle.last_value_counts

    def rigged(ds, n):
        counts = real(ds, n)
        return counts[:-1] + (counts[-1] + 1,)

    monkeypatch.setattr(oracle, "last_value_counts", rigged)
    assert "{2} n=3 j=3: last-value formula matches enumeration" in _failed(
        verify.last_fixed_report(top=2)
    )
    assert "{2} n=3: last-value counts sum to the stabilized enumeration" in _failed(
        verify.witness_split_report(top=2)
    )


def test_a_wrong_onto_upper_walk_fails_the_split_report(monkeypatch):
    # the inclusion-exclusion table is the split check's other side: one too
    # many onto-upper witnesses at index 1
    real = oracle.onto_counts

    def rigged(ds, i):
        table = list(real(ds, i))
        upper, full = table[1]
        table[1] = (upper + 1, full)
        return tuple(table)

    monkeypatch.setattr(oracle, "onto_counts", rigged)
    assert "{2} i=1: witnesses split by whether value 1 appears" in _failed(
        verify.witness_split_report(top=2)
    )


def test_prefix_signs_report_passes():
    report = verify.prefix_signs_report(top=4)
    assert report.passed, report.failures
    for ds in (DescentSet((2,)), DescentSet((1, 2)), DescentSet((2, 4))):
        # the run prefix, then one tail claim per index
        assert len(_checks_of(report, ds)) == ds.longest_run + ds.largest + 2


def test_sign_survey_report_passes_across_offsets():
    report = verify.sign_survey_report(top=4, k_min=-3, k_max=2)
    assert report.passed, report.failures
    for ds in verify.descent_sets_up_to(4):
        assert len(_checks_of(report, ds)) == 6, ds


def test_sign_survey_report_rejects_an_empty_range():
    with pytest.raises(DomainError, match=r"empty offset range \[1,0\]"):
        verify.sign_survey_report(top=2, k_min=1, k_max=0)


def test_failing_check_is_reported_not_raised():
    report = Report("demo", (Check("always wrong", 1, 2),))
    assert not report.passed
    assert report.failures[0].claim == "always wrong"


# Each of these grids once left its report with no checks, and the report
# passed on nothing.
EMPTY_GRIDS = {
    "agreement top=0": lambda: verify.agreement_report(top=0),
    "agreement cells_max=0": lambda: verify.agreement_report(cells_max=0),
    "single_descent a_max=0": lambda: verify.single_descent_report(a_max=0),
    "monotonicity extra_n=0": lambda: verify.monotonicity_report(extra_n=0),
    "stable_form span=-1": lambda: verify.stable_form_report(span=-1),
    "last_fixed span=-5": lambda: verify.last_fixed_report(span=-5),
    "window top=0": lambda: verify.window_report(top=0),
    "basis_roundtrip k_min>k_max": lambda: verify.basis_roundtrip_report(
        k_min=2, k_max=1
    ),
}


@pytest.mark.parametrize("name", EMPTY_GRIDS)
def test_a_grid_with_no_checks_is_refused(name):
    with pytest.raises(DomainError):
        EMPTY_GRIDS[name]()
