"""Named verification suites behind `bloomlab verify`.

Each suite returns a list of CheckResult plus optional report artifacts
(CSV text keyed by filename stem). Suites are deterministic: randomized
sweeps draw from a fixed-seed generator.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

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


# --------------------------------------------------------------------------
# Published-number reproduction
# --------------------------------------------------------------------------


def suite_paper_numbers() -> SuiteResult:
    checks = []

    t0 = time.perf_counter()
    ks = analytics.optimal_k(64, 4, STANDARD)
    kc = analytics.optimal_k(64, 4, CLASSIC)
    f_s11 = float(analytics.fpr_standard_exact(64, 4, 11))
    f_c11 = float(analytics.fpr_classic_exact(64, 4, 11))
    est = analytics.optimal_k_estimate(64, 4)
    elapsed = time.perf_counter() - t0
    ok = (
        ks.k == 10
        and _sig3(float(ks.fpr)) == "6.15e-04"
        and kc.k == 9
        and _sig3(float(kc.fpr)) == "4.55e-04"
        and _sig3(f_s11) == "6.25e-04"
        and _sig3(f_c11) == "4.85e-04"
        and f"{est:.2f}" == "11.09"
        and elapsed < 5.0
    )
    checks.append(
        CheckResult(
            "optima at m=64, n=4",
            ok,
            f"k*_S={ks.k} f*_S={_sig3(float(ks.fpr))} k*_C={kc.k} "
            f"f*_C={_sig3(float(kc.fpr))} f_S(11)={_sig3(f_s11)} "
            f"f_C(11)={_sig3(f_c11)} est={est:.2f} ({elapsed:.2f}s)",
        )
    )

    t0 = time.perf_counter()
    ks = analytics.optimal_k(1000, 20, STANDARD)
    kc = analytics.optimal_k(1000, 20, CLASSIC)
    est = analytics.optimal_k_estimate(1000, 20)
    elapsed = time.perf_counter() - t0
    ok = kc.k == 33 and ks.k == 34 and f"{est:.1f}" == "34.7" and elapsed < 60
    checks.append(
        CheckResult(
            "optima at m=1000, n=20",
            ok,
            f"k*_C={kc.k} k*_S={ks.k} est={est:.1f} ({elapsed:.2f}s)",
        )
    )

    t0 = time.perf_counter()
    ks = analytics.optimal_k(1024, 5, STANDARD)
    kc = analytics.optimal_k(1024, 5, CLASSIC)
    est = analytics.optimal_k_estimate(1024, 5)
    pen_s = (float(analytics.fpr_standard_exact(1024, 5, 142) / ks.fpr) - 1) * 100
    pen_c = (float(analytics.fpr_classic_exact(1024, 5, 142) / kc.fpr) - 1) * 100
    eff_s = 1 - analytics.efficiency(1024, 5, 142, STANDARD) / analytics.efficiency(
        1024, 5, ks.k, STANDARD
    )
    eff_c = 1 - analytics.efficiency(1024, 5, 142, CLASSIC) / analytics.efficiency(
        1024, 5, kc.k, CLASSIC
    )
    elapsed = time.perf_counter() - t0
    ok = (
        ks.k == 133
        and kc.k == 124
        and round(est) == 142
        and abs(pen_s - 15.7) <= 0.1
        and abs(pen_c - 106.9) <= 0.1
        and abs(eff_s * 100 - 0.2) <= 0.1
        and abs(eff_c * 100 - 0.7) <= 0.1
        and elapsed < 600
    )
    checks.append(
        CheckResult(
            "misconfiguration cost at m=1024, n=5",
            ok,
            f"k*_S={ks.k} k*_C={kc.k} est={est:.2f} "
            f"penalty S=+{pen_s:.1f}% C=+{pen_c:.1f}% "
            f"eff drop S={eff_s*100:.2f}% C={eff_c*100:.2f}% ({elapsed:.2f}s)",
        )
    )

    t0 = time.perf_counter()
    ms = analytics.max_efficiency(100, STANDARD)
    mc = analytics.max_efficiency(100, CLASSIC)
    closed = analytics.max_efficiency_closed_form(100, STANDARD)
    elapsed = time.perf_counter() - t0
    ok = (
        ms.n == 69
        and ms.k == 1
        and f"{ms.epsilon:.2f}" == "0.69"
        and abs(ms.epsilon - closed) < 0.005
        and mc.n == 1
        and mc.k == 50
        and f"{mc.epsilon:.2f}" == "0.96"
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


def suite_oracle_small() -> SuiteResult:
    t0 = time.perf_counter()
    bad: list[str] = []
    count = 0
    for m in range(1, 6):
        for n in range(0, 4):
            for k in range(1, min(3, m) + 1):
                count += 1
                if oracle.enumerate_fpr_standard(m, n, k) != (
                    analytics.fpr_standard_exact(m, n, k)
                ):
                    bad.append(f"fpr_S({m},{n},{k})")
                if oracle.enumerate_fpr_classic(m, n, k) != (
                    analytics.fpr_classic_exact(m, n, k)
                ):
                    bad.append(f"fpr_C({m},{n},{k})")
                pmf_s = oracle.enumerate_classic_pmf(m, n * k)
                pmf_c = oracle.enumerate_committee_pmf(m, n, k)
                for i in range(m + 1):
                    if pmf_s[i] != occupancy.classic_pmf(m, n * k, i):
                        bad.append(f"pmf_S({m},{n},{k},{i})")
                    if pmf_c[i] != occupancy.committee_pmf(m, n, k, i):
                        bad.append(f"pmf_C({m},{n},{k},{i})")
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 60
    detail = f"{count} configurations, exact equality ({elapsed:.2f}s)"
    if bad:
        detail = "mismatch at " + ", ".join(bad[:8])
    return SuiteResult("oracle-small", [CheckResult("brute-force equivalence", ok, detail)])


# --------------------------------------------------------------------------
# Invariant battery
# --------------------------------------------------------------------------


def suite_invariants() -> SuiteResult:
    rng = random.Random(0xB100F)
    checks = []
    t_start = time.perf_counter()

    # normalization, every family
    bad = 0
    for m in range(1, 13):
        for n in range(0, 13):
            if sum(occupancy.classic_pmf(m, n, i) for i in range(m + 1)) != 1:
                bad += 1
    cases = 0
    for m in range(1, 13):
        for k in range(1, m + 1):
            for n in range(0, 12 // k + 1):
                cases += 1
                total = sum(
                    occupancy.committee_pmf(m, n, k, i) for i in range(m + 1)
                )
                if total != 1:
                    bad += 1
    multi = 0
    for _ in range(25):
        spec = _random_spec(rng, max_m=8, max_total=10)
        multi += 1
        if sum(occupancy.union_pmf(spec, i) for i in range(spec.m + 1)) != 1:
            bad += 1
        if sum(occupancy.intersection_pmf_table(spec)) != 1:
            bad += 1
    checks.append(
        CheckResult(
            "pmf normalization (classic/committee/union/intersection)",
            bad == 0,
            f"{156 + cases + 2 * multi} distributions",
        )
    )

    # single-step recurrence in n for the classic pmf
    bad = 0
    for _ in range(40):
        m = rng.randint(1, 10)
        n = rng.randint(0, 10)
        for i in range(m):
            lhs = occupancy.classic_pmf(m, n + 1, i + 1)
            rhs = Fraction(m - i, m) * occupancy.classic_pmf(m, n, i) + Fraction(
                i + 1, m
            ) * occupancy.classic_pmf(m, n, i + 1)
            if lhs != rhs:
                bad += 1
    checks.append(CheckResult("classic pmf recurrence in n", bad == 0, "40 draws"))

    # moment recurrence linking (m, r) to (m-1, r)
    bad = 0
    for _ in range(40):
        m = rng.randint(2, 8)
        n = rng.randint(0, 8)
        r = rng.randint(0, 8)
        lhs = occupancy.classic_raw_moment(m, n, r)
        rhs = Fraction(1, m) * occupancy.classic_raw_moment(m, n, r + 1) + Fraction(
            m - 1, m
        ) ** n * occupancy.classic_raw_moment(m - 1, n, r)
        if lhs != rhs:
            bad += 1
    checks.append(CheckResult("classic moment recurrence in m", bad == 0, "40 draws"))

    # Stirling / backward-difference polynomial identity at rational points
    bad = 0
    for _ in range(30):
        n = rng.randint(1, 8)
        r = rng.randint(0, 8)
        z = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
        lhs = sum(
            stirling2(n, i) * i**r * falling_factorial(z, i) for i in range(1, n + 1)
        )
        rhs = sum(
            stirling2(r, j) * nabla_power(z, n, j) * falling_factorial(z, j)
            for j in range(0, r + 1)
        )
        if lhs != rhs:
            bad += 1
    checks.append(
        CheckResult("Stirling difference identity at rational z", bad == 0, "30 draws")
    )

    # complement duality: intersection at i == union at m-i with sizes m-k_d
    bad = 0
    for _ in range(20):
        m = rng.randint(2, 8)
        c = rng.randint(1, 3)
        sizes = [rng.randint(1, m - 1) for _ in range(c)]
        spec = occupancy.CommitteeSpec(m, [(1, k) for k in sizes])
        comp = occupancy.CommitteeSpec(m, [(1, m - k) for k in sizes])
        inter = occupancy.intersection_pmf_table(spec)
        for i in range(m + 1):
            if inter[i] != occupancy.union_pmf(comp, m - i):
                bad += 1
    checks.append(
        CheckResult("union/intersection complement duality", bad == 0, "20 specs")
    )

    # moment sandwich
    bad = 0
    for _ in range(60):
        m = rng.randint(2, 20)
        k = rng.randint(1, m - 1)
        n = rng.randint(0, 8)
        r = rng.randint(0, min(k, m - k))
        lower, jensen, upper = occupancy.moment_bounds(m, n, k, r)
        middle = occupancy.committee_moment(
            m, n, k, r, occupancy.MomentKind.BINOMIAL
        ) / Fraction(math.comb(m, r))
        if not lower <= jensen <= middle <= upper:
            bad += 1
    checks.append(CheckResult("normalized-moment sandwich", bad == 0, "60 draws"))

    # full bound-ordering sweep
    bad = 0
    cnt = 0
    for m in range(2, 65):
        for n in range(1, 17):
            for k in range(1, (m - 1) // 2 + 1):
                cnt += 1
                b = analytics.fpr_bounds(m, n, k)
                f_s = analytics.fpr_standard_exact(m, n, k)
                f_c = analytics.fpr_classic_exact(m, n, k)
                if not (
                    b.E <= float(b.M) + 1e-12
                    and b.M <= f_s <= b.U
                    and b.L <= f_s
                    and b.L <= f_c <= b.U
                ):
                    bad += 1
    checks.append(
        CheckResult("bound ordering E<=M<=f_S<=U, L<=f<=U", bad == 0, f"{cnt} configs")
    )

    # recursive backend within its documented bound on the same sweep
    # (subsampled) and at the paper's optima and misconfiguration, both variants
    bad = 0
    cells = [
        (m, n, k)
        for m in range(2, 65, 3)
        for n in range(1, 17, 3)
        for k in range(1, (m - 1) // 2 + 1, 2)
    ]
    cells += [(64, 4, 9), (64, 4, 10), (64, 4, 11), (1000, 20, 33), (1000, 20, 34)]
    cells += [(1024, 5, 124), (1024, 5, 133), (1024, 5, 142)]
    for m, n, k in cells:
        for variant in (STANDARD, CLASSIC):
            exact = analytics.fpr_exact(m, n, k, variant)
            rec = analytics.fpr_recursive(m, n, k, variant)
            if abs(Fraction(rec) - exact) > exact / 2**51 + Fraction(1, 2**1074):
                bad += 1
    checks.append(
        CheckResult(
            "recursive backend |r-f| <= 2^-51 f + 2^-1074",
            bad == 0,
            f"{len(cells)} configs",
        )
    )

    # power-mean monotonicity across hash counts (and efficiency ordering)
    bad = 0
    cnt = 0
    for m in range(3, 201, 7):
        for k in range(1, 7):
            for j in (1, 2):
                n = k * (k + 1) * j
                f_lo = analytics.fpr_standard_exact(m, n // k, k)
                f_hi = analytics.fpr_standard_exact(m, n // (k + 1), k + 1)
                cnt += 1
                if f_hi**k < f_lo ** (k + 1):
                    bad += 1
                if analytics.efficiency(m, n // k, k, STANDARD) <= analytics.efficiency(
                    m, n // (k + 1), k + 1, STANDARD
                ):
                    bad += 1
    checks.append(
        CheckResult("hash-count power-mean monotonicity", bad == 0, f"{cnt} configs")
    )

    elapsed = time.perf_counter() - t_start
    checks.append(CheckResult("invariant battery runtime < 300s", elapsed < 300, f"{elapsed:.1f}s"))
    return SuiteResult("invariants", checks)


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
    t0 = time.perf_counter()
    rows = montecarlo.run_validation(montecarlo.validation_suite())
    elapsed = time.perf_counter() - t0
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
    t0 = time.perf_counter()
    eps_s = [analytics.max_efficiency(m, STANDARD).epsilon for m in (100, 1000, 10000)]
    eps_c = [analytics.max_efficiency(m, CLASSIC).epsilon for m in (100, 1000, 10000)]
    elapsed = time.perf_counter() - t0
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
    worst = 0.0
    for k in range(1, 11):
        x = analytics.valley_crossing(k)
        worst = max(worst, analytics.valley_residual(k, x))
    golden = abs(analytics.valley_crossing(1) - math.log((1 + math.sqrt(5)) / 2))
    ok = worst < 1e-10 and golden < 1e-9
    return SuiteResult(
        "valley",
        [
            CheckResult(
                "equal-rate crossings k=1..10",
                ok,
                f"max residual {worst:.2e}, k=1 vs ln(golden ratio) {golden:.2e}",
            )
        ],
    )


# --------------------------------------------------------------------------
# Conjecture scan
# --------------------------------------------------------------------------


def suite_conjectures() -> SuiteResult:
    t0 = time.perf_counter()
    report = montecarlo.conjecture_scan(
        range(1, 257),
        range(1, 33),
        k_values=[(m, k) for m in (32, 64, 100) for k in range(1, 11)],
    )
    elapsed = time.perf_counter() - t0
    bad_cells = [r for r in report.ordering if not r.ok]
    mono_bad = sum(not r.ok for r in report.monotonicity)
    ok = not bad_cells
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
        [CheckResult("optimal-k ordering conjecture scan", ok, detail)],
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
