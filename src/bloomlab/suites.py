"""Named verification suites behind `bloomlab verify`.

Each suite returns a list of CheckResult plus optional report artifacts
(CSV text keyed by filename stem). Suites are deterministic: randomized
sweeps draw from a fixed-seed generator.

Every timed check measures its work once, with `_timed`; the invariant
battery has one clock for all its checks. Each invariant lists its cases and
tests one predicate over them (`_tally`). The battery draws all its random
cases before any predicate runs, so a failing case cannot shift the draws
of a later check.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

from . import analytics, montecarlo, occupancy, oracle
from .filters import FilterVariant
from .kernel import falling_factorial, nabla_power, stirling2

__all__ = ["CheckResult", "SuiteResult", "SUITES", "run_suite", "suite_names"]

STANDARD = FilterVariant.STANDARD
CLASSIC = FilterVariant.CLASSIC


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}" + (
            f"  [{self.detail}]" if self.detail else ""
        )


@dataclass
class SuiteResult:
    suite: str
    checks: list[CheckResult]
    artifacts: dict[str, str] = field(default_factory=dict)


def _sig3(x: float) -> str:
    return f"{x:.2e}"


def _timed(measure):
    """measure()'s value and the seconds it took, as (value, seconds)."""
    t0 = time.perf_counter()
    value = measure()
    return value, time.perf_counter() - t0


# --------------------------------------------------------------------------
# Published-number reproduction
# --------------------------------------------------------------------------


def _optima(m: int, n: int):
    """The standard and classic optima at (m, n) and the estimate (m/n) ln 2."""
    return (
        analytics.optimal_k(m, n, STANDARD),
        analytics.optimal_k(m, n, CLASSIC),
        analytics.optimal_k_estimate(m, n),
    )


def _misconfiguration(best: analytics.OptimalK, variant: FilterVariant):
    """Percent rate penalty and efficiency drop of k = 142 at (1024, 5)."""
    f, eff = analytics.fpr_exact(1024, 5, 142, variant), analytics._efficiency
    return (
        (float(f / best.fpr) - 1) * 100,
        (1 - eff(1024, 5, f) / eff(1024, 5, best.fpr)) * 100,
    )


def suite_paper_numbers() -> SuiteResult:
    (ks, kc, est, f_s11, f_c11), elapsed = _timed(lambda: (
        *_optima(64, 4),
        float(analytics.fpr_standard_exact(64, 4, 11)),
        float(analytics.fpr_classic_exact(64, 4, 11)),
    ))
    f_s, f_c = _sig3(float(ks.fpr)), _sig3(float(kc.fpr))
    ok = (
        (ks.k, f_s, kc.k, f_c, _sig3(f_s11), _sig3(f_c11), f"{est:.2f}")
        == (10, "6.15e-04", 9, "4.55e-04", "6.25e-04", "4.85e-04", "11.09")
        and elapsed < 5.0
    )
    checks = [
        CheckResult(
            "optima at m=64, n=4",
            ok,
            f"k*_S={ks.k} f*_S={f_s} k*_C={kc.k} f*_C={f_c} f_S(11)={_sig3(f_s11)} "
            f"f_C(11)={_sig3(f_c11)} est={est:.2f} ({elapsed:.2f}s)",
        )
    ]

    (ks, kc, est), elapsed = _timed(lambda: _optima(1000, 20))
    ok = kc.k == 33 and ks.k == 34 and f"{est:.1f}" == "34.7" and elapsed < 60
    checks.append(
        CheckResult(
            "optima at m=1000, n=20",
            ok,
            f"k*_C={kc.k} k*_S={ks.k} est={est:.1f} ({elapsed:.2f}s)",
        )
    )

    def misconfigured():
        ks, kc, est = _optima(1024, 5)
        cost_s, cost_c = _misconfiguration(ks, STANDARD), _misconfiguration(kc, CLASSIC)
        return ks, kc, est, cost_s, cost_c

    (ks, kc, est, (pen_s, eff_s), (pen_c, eff_c)), elapsed = _timed(misconfigured)
    ok = (
        ks.k == 133
        and kc.k == 124
        and round(est) == 142
        and abs(pen_s - 15.7) <= 0.1
        and abs(pen_c - 106.9) <= 0.1
        and abs(eff_s - 0.2) <= 0.1
        and abs(eff_c - 0.7) <= 0.1
        and elapsed < 600
    )
    checks.append(
        CheckResult(
            "misconfiguration cost at m=1024, n=5",
            ok,
            f"k*_S={ks.k} k*_C={kc.k} est={est:.2f} "
            f"penalty S=+{pen_s:.1f}% C=+{pen_c:.1f}% "
            f"eff drop S={eff_s:.2f}% C={eff_c:.2f}% ({elapsed:.2f}s)",
        )
    )

    (ms, mc, closed), elapsed = _timed(lambda: (
        analytics.max_efficiency(100, STANDARD),
        analytics.max_efficiency(100, CLASSIC),
        analytics.max_efficiency_closed_form(100, STANDARD),
    ))
    ok = (
        (ms.n, ms.k, f"{ms.epsilon:.2f}") == (69, 1, "0.69")
        and abs(ms.epsilon - closed) < 0.005
        and (mc.n, mc.k, f"{mc.epsilon:.2f}") == (1, 50, "0.96")
        and elapsed < 60
    )
    checks.append(
        CheckResult(
            "peak efficiencies at m=100",
            ok,
            f"standard ({ms.n},{ms.k}) eps={ms.epsilon:.4f} closed={closed:.4f}; "
            f"classic ({mc.n},{mc.k}) eps={mc.epsilon:.4f} ({elapsed:.2f}s)",
        )
    )
    return SuiteResult("paper-numbers", checks)


# --------------------------------------------------------------------------
# Exhaustive-enumeration equivalence
# --------------------------------------------------------------------------


def _oracle_mismatches(m: int, n: int, k: int):
    """Names of the exact values at (m, n, k) that enumeration disagrees with."""
    if oracle.enumerate_fpr_standard(m, n, k) != analytics.fpr_standard_exact(m, n, k):
        yield f"fpr_S({m},{n},{k})"
    if oracle.enumerate_fpr_classic(m, n, k) != analytics.fpr_classic_exact(m, n, k):
        yield f"fpr_C({m},{n},{k})"
    pmf_s = oracle.enumerate_classic_pmf(m, n * k)
    pmf_c = oracle.enumerate_committee_pmf(m, n, k)
    for i in range(m + 1):
        if pmf_s[i] != occupancy.classic_pmf(m, n * k, i):
            yield f"pmf_S({m},{n},{k},{i})"
        if pmf_c[i] != occupancy.committee_pmf(m, n, k, i):
            yield f"pmf_C({m},{n},{k},{i})"


def suite_oracle_small() -> SuiteResult:
    cases = [
        (m, n, k)
        for m in range(1, 6)
        for n in range(0, 4)
        for k in range(1, min(3, m) + 1)
    ]
    bad, elapsed = _timed(lambda: [b for c in cases for b in _oracle_mismatches(*c)])
    detail = f"{len(cases)} configurations, exact equality ({elapsed:.2f}s)"
    if bad:
        detail = "mismatch at " + ", ".join(bad[:8])
    return SuiteResult(
        "oracle-small",
        [CheckResult("brute-force equivalence", not bad and elapsed < 60, detail)],
    )


# --------------------------------------------------------------------------
# Invariant battery
# --------------------------------------------------------------------------


def suite_invariants() -> SuiteResult:
    checks, elapsed = _timed(lambda: _invariant_checks(random.Random(0xB100F)))
    checks.append(CheckResult(
        "invariant battery runtime < 300s", elapsed < 300, f"{elapsed:.1f}s"
    ))
    return SuiteResult("invariants", checks)


def _tally(name: str, cases: list, unit: str, holds) -> CheckResult:
    """Pass when holds(*case) for every case; the detail counts the cases."""
    return CheckResult(name, all(holds(*c) for c in cases), f"{len(cases)} {unit}")


def _invariant_checks(rng: random.Random) -> list[CheckResult]:
    # every random case, drawn before any predicate runs
    specs = [_random_spec(rng, max_m=8, max_total=10) for _ in range(25)]
    steps_n = [(rng.randint(1, 10), rng.randint(0, 10)) for _ in range(40)]
    steps_m = [
        (rng.randint(2, 8), rng.randint(0, 8), rng.randint(0, 8)) for _ in range(40)
    ]
    points = [
        (rng.randint(1, 8), rng.randint(0, 8),
         Fraction(rng.randint(-40, 40), rng.randint(1, 9)))
        for _ in range(30)
    ]
    duals = []
    for _ in range(20):
        m = rng.randint(2, 8)
        sizes = [rng.randint(1, m - 1) for _ in range(rng.randint(1, 3))]
        duals.append((
            occupancy.CommitteeSpec(m, [(1, k) for k in sizes]),
            occupancy.CommitteeSpec(m, [(1, m - k) for k in sizes]),
        ))
    sandwiches = []
    for _ in range(60):
        m = rng.randint(2, 20)
        k = rng.randint(1, m - 1)
        n = rng.randint(0, 8)
        sandwiches.append((m, n, k, rng.randint(0, min(k, m - k))))

    pmf, moment = occupancy.classic_pmf, occupancy.classic_raw_moment
    # normalization, every family: each distribution as (P[X = .], m)
    dists = [(partial(pmf, m, n), m) for m in range(1, 13) for n in range(0, 13)]
    dists += [
        (partial(occupancy.committee_pmf, m, n, k), m)
        for m in range(1, 13)
        for k in range(1, m + 1)
        for n in range(0, 12 // k + 1)
    ]
    for spec in specs:
        dists.append((partial(occupancy.union_pmf, spec), spec.m))
        dists.append((partial(occupancy.intersection_pmf, spec), spec.m))
    # the bound-ordering sweep, and a subsample of it plus the paper's optima
    # and misconfiguration for the recursive backend
    sweep = [
        (m, n, k)
        for m in range(2, 65)
        for n in range(1, 17)
        for k in range(1, (m - 1) // 2 + 1)
    ]
    subsample = [(m, n, k) for m, n, k in sweep if m % 3 == 2 and n % 3 == 1 and k % 2]
    subsample += [(64, 4, 9), (64, 4, 10), (64, 4, 11), (1000, 20, 33), (1000, 20, 34)]
    subsample += [(1024, 5, 124), (1024, 5, 133), (1024, 5, 142)]
    # (k + 1) j items with k hashes against k j items with k + 1 hashes: the
    # same k (k + 1) j hash insertions either way
    splits = [
        (m, k, (k + 1) * j, k * j)
        for m in range(3, 201, 7)
        for k in range(1, 7)
        for j in (1, 2)
    ]

    return [
        _tally(
            "pmf normalization (classic/committee/union/intersection)",
            dists, "distributions", lambda p, m: sum(p(i) for i in range(m + 1)) == 1,
        ),
        _tally("classic pmf recurrence in n", steps_n, "draws", lambda m, n: all(
            pmf(m, n + 1, i + 1)
            == Fraction(m - i, m) * pmf(m, n, i) + Fraction(i + 1, m) * pmf(m, n, i + 1)
            for i in range(m)
        )),
        _tally(
            "classic moment recurrence in m", steps_m, "draws",
            lambda m, n, r: moment(m, n, r)
            == Fraction(1, m) * moment(m, n, r + 1)
            + Fraction(m - 1, m) ** n * moment(m - 1, n, r),
        ),
        _tally(
            "Stirling difference identity at rational z", points, "draws",
            lambda n, r, z: sum(
                stirling2(n, i) * i**r * falling_factorial(z, i)
                for i in range(1, n + 1)
            ) == sum(
                stirling2(r, j) * nabla_power(z, n, j) * falling_factorial(z, j)
                for j in range(0, r + 1)
            ),
        ),
        _tally(
            "union/intersection complement duality", duals, "specs",
            lambda spec, comp: all(
                p == occupancy.union_pmf(comp, spec.m - i)
                for i, p in enumerate(occupancy.intersection_pmf_table(spec))
            ),
        ),
        _tally("normalized-moment sandwich", sandwiches, "draws", _sandwiched),
        _tally("bound ordering E<=M<=f_S<=U, L<=f<=U", sweep, "configs", _ordered),
        _tally(
            "recursive backend |r-f| <= 2^-51 f + 2^-1074", subsample, "configs",
            _recursive_close,
        ),
        _tally("hash-count power-mean monotonicity", splits, "configs", _power_mean),
    ]


def _sandwiched(m: int, n: int, k: int, r: int) -> bool:
    lower, jensen, upper = occupancy.moment_bounds(m, n, k, r)
    kind = occupancy.MomentKind.BINOMIAL
    middle = occupancy.committee_moment(m, n, k, r, kind) / math.comb(m, r)
    return lower <= jensen <= middle <= upper


def _ordered(m: int, n: int, k: int) -> bool:
    b = analytics.fpr_bounds(m, n, k)
    f_s = analytics.fpr_standard_exact(m, n, k)
    f_c = analytics.fpr_classic_exact(m, n, k)
    return (
        b.E <= float(b.M) + 1e-12
        and b.M <= f_s <= b.U
        and b.L <= f_s
        and b.L <= f_c <= b.U
    )


def _recursive_close(m: int, n: int, k: int) -> bool:
    for variant in (STANDARD, CLASSIC):
        exact = analytics.fpr_exact(m, n, k, variant)
        rec = analytics.fpr_recursive(m, n, k, variant)
        if abs(Fraction(rec) - exact) > exact / 2**51 + Fraction(1, 2**1074):
            return False
    return True


def _power_mean(m: int, k: int, n_lo: int, n_hi: int) -> bool:
    """f(n_lo, k)^(k+1) <= f(n_hi, k+1)^k, and k hashes are the more efficient."""
    f_lo = analytics.fpr_standard_exact(m, n_lo, k)
    f_hi = analytics.fpr_standard_exact(m, n_hi, k + 1)
    eff = analytics._efficiency
    return f_hi**k >= f_lo ** (k + 1) and eff(m, n_lo, f_lo) > eff(m, n_hi, f_hi)


def _random_spec(rng: random.Random, max_m: int, max_total: int):
    m = rng.randint(2, max_m)
    c = rng.randint(1, 3)
    departments = []
    budget = max_total
    for _ in range(c):
        k_d = rng.randint(1, min(m, max(1, budget)))
        n_d = rng.randint(1, max(1, budget // k_d))
        departments.append((n_d, k_d))
        budget -= n_d * k_d
        if budget < 1:
            break
    return occupancy.CommitteeSpec(m, departments)


# --------------------------------------------------------------------------
# Monte Carlo agreement
# --------------------------------------------------------------------------


def suite_montecarlo() -> SuiteResult:
    rows, elapsed = _timed(
        lambda: montecarlo.run_validation(montecarlo.validation_suite())
    )
    fpr_out = [r for r in rows if abs(r.z_score) > 4]
    mean_out = [r for r in rows if abs(r.mean_z) > 4]
    chi_bad = [r for r in rows if r.chi2_p <= 1e-4]
    ok = (
        len(rows) >= 12
        and len(fpr_out) <= 1
        and all(abs(r.z_score) <= 6 for r in rows)
        and len(mean_out) <= 1
        and all(abs(r.mean_z) <= 6 for r in rows)
        and not chi_bad
        and elapsed < 300
    )
    detail = (
        f"{len(rows)} configs, worst fpr |z|={max(abs(r.z_score) for r in rows):.2f}, "
        f"worst mean |z|={max(abs(r.mean_z) for r in rows):.2f}, "
        f"min chi2 p={min(r.chi2_p for r in rows):.2e} ({elapsed:.1f}s)"
    )
    return SuiteResult(
        "montecarlo",
        [CheckResult("validation suite within 4 SE (1 outlier <= 6 SE)", ok, detail)],
        artifacts={"validation": montecarlo.validation_csv(rows)},
    )


# --------------------------------------------------------------------------
# Asymptotics and valley solver
# --------------------------------------------------------------------------


def suite_asymptotics() -> SuiteResult:
    (eps_s, eps_c), elapsed = _timed(lambda: [
        [analytics.max_efficiency(m, variant).epsilon for m in (100, 1000, 10000)]
        for variant in (STANDARD, CLASSIC)
    ])
    ok = (
        eps_s[0] < eps_s[1] < eps_s[2]
        and eps_c[0] < eps_c[1] < eps_c[2]
        and abs(eps_s[2] - math.log(2)) < 0.01
        and abs(eps_c[2] - 1.0) < 0.01
        and elapsed < 600
    )
    detail = (
        "standard " + "<".join(f"{e:.5f}" for e in eps_s) + " -> ln2; "
        "classic " + "<".join(f"{e:.5f}" for e in eps_c) + " -> 1"
        f" ({elapsed:.1f}s)"
    )
    return SuiteResult(
        "asymptotics", [CheckResult("max efficiency increases to limits", ok, detail)]
    )


def suite_valley() -> SuiteResult:
    worst = max(
        analytics.valley_residual(k, analytics.valley_crossing(k)) for k in range(1, 11)
    )
    golden = abs(analytics.valley_crossing(1) - math.log((1 + math.sqrt(5)) / 2))
    ok = worst < 1e-10 and golden < 1e-9
    detail = f"max residual {worst:.2e}, k=1 vs ln(golden ratio) {golden:.2e}"
    check = CheckResult("equal-rate crossings k=1..10", ok, detail)
    return SuiteResult("valley", [check])


# --------------------------------------------------------------------------
# Conjecture scan
# --------------------------------------------------------------------------


def suite_conjectures() -> SuiteResult:
    report, elapsed = _timed(lambda: montecarlo.conjecture_scan(
        range(1, 257),
        range(1, 33),
        k_values=[(m, k) for m in (32, 64, 100) for k in range(1, 11)],
    ))
    bad_cells = [r for r in report.ordering if not r.ok]
    mono_bad = sum(not r.ok for r in report.monotonicity)
    cells = "".join(
        f" (m={r.m},n={r.n}: k*_C={r.k_classic},k*_S={r.k_standard})"
        for r in bad_cells[:4]
    )
    detail = (
        f"{len(report.ordering)} (m,n) cells, {len(bad_cells)} ordering "
        f"violations{cells}; "
        f"{mono_bad}/{len(report.monotonicity)} integer-n peak wobbles (informational) "
        f"({elapsed:.1f}s)"
    )
    return SuiteResult(
        "conjectures",
        [CheckResult("optimal-k ordering conjecture scan", not bad_cells, detail)],
        artifacts={"conjecture_scan": report.to_csv()},
    )


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------

SUITES = {
    "paper-numbers": suite_paper_numbers,
    "oracle-small": suite_oracle_small,
    "invariants": suite_invariants,
    "montecarlo": suite_montecarlo,
    "asymptotics": suite_asymptotics,
    "valley": suite_valley,
    "conjectures": suite_conjectures,
}


def suite_names() -> list[str]:
    return [*SUITES, "all"]


def run_suite(name: str) -> list[SuiteResult]:
    """Run one suite (or all of them) and return their results."""
    if name == "all":
        return [fn() for fn in SUITES.values()]
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {suite_names()}")
    return [SUITES[name]()]
