"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion 10 (conjecture scan) asserts the scan's established result over
the full grid m <= 256, n <= 32: the conjectured ordering
m/2n <= k*_C <= k*_S <= (m/n) ln 2 fails at exactly one cell, (m=26, n=12),
where k*_C = 2 > k*_S = 1 while both flanking bounds hold, and it holds at
every other cell. Its CSV, tie ranges and peak rows included, equals the
committed reports/conjecture_scan.csv byte for byte. The rates behind that
cell are confirmed by an independent bit-count Markov chain in
test_conjecture_counterexample.py. The suite's own check still reports the
violation, since the conjecture is false.
"""

import math
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest

from bloomlab import suites


def _report(criterion: int, check: suites.CheckResult) -> None:
    status = "PASS" if check.passed else "FAIL"
    print(f"ACCEPTANCE {criterion:>2}: {status}  {check.name}  [{check.detail}]")
    assert check.passed, f"criterion {criterion}: {check.name} -- {check.detail}"


@pytest.fixture(scope="module")
def paper_numbers():
    return suites.suite_paper_numbers()


def test_criterion_01_optima_m64_n4(paper_numbers):
    _report(1, paper_numbers.checks[0])


def test_criterion_02_optima_m1000_n20(paper_numbers):
    _report(2, paper_numbers.checks[1])


def test_criterion_03_misconfiguration_m1024_n5(paper_numbers):
    _report(3, paper_numbers.checks[2])


def test_criterion_04_peak_efficiency_m100(paper_numbers):
    _report(4, paper_numbers.checks[3])


def test_criterion_05_brute_force_oracle():
    result = suites.suite_oracle_small()
    _report(5, result.checks[0])


def test_criterion_06_invariant_suites():
    result = suites.suite_invariants()
    for check in result.checks:
        _report(6, check)


def test_criterion_07_monte_carlo_agreement():
    result = suites.suite_montecarlo()
    _report(7, result.checks[0])


def test_criterion_08_asymptotic_efficiencies():
    result = suites.suite_asymptotics()
    _report(8, result.checks[0])


def test_criterion_09_valley_solver():
    result = suites.suite_valley()
    _report(9, result.checks[0])


# the only cell of the default grid where the conjectured ordering fails
COUNTEREXAMPLE = (26, 12)
# the committed scan artifact: every ordering row with its tie ranges and
# every peak row, as `bloomlab verify all --out reports` writes it
SCAN_CSV = Path(__file__).resolve().parents[1] / "reports" / "conjecture_scan.csv"


class _OrderingRow(NamedTuple):
    k_classic: tuple[int, int]  # (smallest, largest) optimal k
    k_standard: tuple[int, int]
    ok: bool


def _k_range(field: str) -> tuple[int, int]:
    lo, _, hi = field.partition("-")
    return int(lo), int(hi or lo)


def _ordering_rows(csv_text: str) -> dict[tuple[int, int], _OrderingRow]:
    rows = {}
    for line in csv_text.splitlines()[1:]:
        check, m, n, kc, ks, _lower, _upper, ok = line.split(",")
        if check == "ordering":
            rows[int(m), int(n)] = _OrderingRow(_k_range(kc), _k_range(ks), ok == "1")
    return rows


def test_criterion_10_conjecture_scan(tmp_path):
    result = suites.suite_conjectures()
    scan = result.checks[0]
    csv_text = result.artifacts["conjecture_scan"]
    artifact = tmp_path / "conjecture_scan.csv"
    artifact.write_text(csv_text)
    print(f"scan artifact: {artifact}")

    rows = _ordering_rows(csv_text)
    refuted = [cell for cell, row in rows.items() if not row.ok]
    m, n = COUNTEREXAMPLE
    row = rows[COUNTEREXAMPLE]
    untied = (row.k_classic, row.k_standard) == ((2, 2), (1, 1))
    floor_lower = math.floor(Fraction(m, 2 * n))
    ceil_upper = math.ceil(m / n * math.log(2))
    findings = {
        "grid is m <= 256, n <= 32": sorted(rows)
        == [(mm, nn) for mm in range(1, 257) for nn in range(1, 33)],
        "only (26,12) refuted": refuted == [COUNTEREXAMPLE],
        "k*_C = 2 and k*_S = 1, untied": untied,
        "floor(m/2n) = 1 <= k*_C": floor_lower == 1 <= row.k_classic[0],
        "k*_S <= ceil((m/n) ln 2) = 2": row.k_standard[1] <= ceil_upper == 2,
        "suite reports the violation": not scan.passed,
        "CSV equals reports/conjecture_scan.csv": csv_text.encode()
        == SCAN_CSV.read_bytes(),
    }
    unmet = [name for name, held in findings.items() if not held]
    detail = (
        "conjecture refuted only at (m=26, n=12): k*_C=2 > k*_S=1, flanks hold; "
        if not unmet
        else f"unmet: {'; '.join(unmet)}; refuted cells {refuted[:4]}; "
    )
    _report(
        10,
        suites.CheckResult(
            "conjecture scan pins its one counterexample",
            not unmet,
            detail + f"suite: {scan.detail}",
        ),
    )
