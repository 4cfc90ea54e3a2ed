"""Randomized verification harness tying live filters to the exact analytics.

Trials are driven by a counter-based element generator keyed by rng_seed and
a distinct prefix byte separates probe elements from inserted elements, so
probes are true negatives by construction and every report is bit-for-bit
reproducible from its TrialConfig.
"""

from __future__ import annotations

import math
import struct
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .analytics import fpr_exact, optimal_k, optimal_k_estimate, peak_efficiency
from .filters import BloomFilter, FilterParams, FilterVariant
from .occupancy import (
    classic_mean_variance,
    classic_pmf,
    committee_mean_variance,
    committee_pmf,
)

__all__ = [
    "TrialConfig",
    "run_trials",
    "ValidationRow",
    "validation_suite",
    "run_validation",
    "validation_csv",
    "validation_summary",
    "ConjectureReport",
    "conjecture_scan",
]

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class TrialConfig:
    """One simulation setup: filter geometry, items per trial, trial and
    probe counts, and the 64-bit element-generator seed."""

    params: FilterParams
    n: int
    trials: int
    probes: int
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 0 or self.trials < 1 or self.probes < 0:
            raise ValueError("need n >= 0, trials >= 1, probes >= 0")
        if not 0 <= self.rng_seed <= _MASK64:
            raise ValueError("rng_seed must fit in 64 bits")


def _insert_element(seed: int, trial: int, i: int) -> bytes:
    return b"\x00" + struct.pack("<QQQ", seed, trial, i)


def _probe_element(seed: int, trial: int, i: int) -> bytes:
    return b"\x01" + struct.pack("<QQQ", seed, trial, i)


def run_trials(config: TrialConfig):
    """(positives, probe_count, bit-sum counter) over all trials."""
    positives = 0
    hist: Counter[int] = Counter()
    for trial in range(config.trials):
        filt = BloomFilter(config.params)
        for i in range(config.n):
            filt.insert(_insert_element(config.rng_seed, trial, i))
        hist[filt.bit_sum()] += 1
        for i in range(config.probes):
            if filt.query(_probe_element(config.rng_seed, trial, i)):
                positives += 1
    return positives, config.trials * config.probes, hist


def _exact_pmf(params: FilterParams, n: int, i: int) -> Fraction:
    if params.variant is FilterVariant.STANDARD:
        return classic_pmf(params.m, n * params.k, i)
    return committee_pmf(params.m, n, params.k, i)


def _exact_mean_var(params: FilterParams, n: int) -> tuple[Fraction, Fraction]:
    if params.variant is FilterVariant.STANDARD:
        return classic_mean_variance(params.m, n * params.k)
    return committee_mean_variance(params.m, n, params.k)


def _occupancy_fit(config: TrialConfig, hist: Counter[int]):
    """(chi-square p-value, empirical mean) of a bit-sum tally against the
    exact occupancy law."""
    # The bit sum cannot exceed n*k: bins above it expect 0 and hold 0, so
    # leaving them out changes neither the statistic nor the dof.
    top = min(config.params.m, config.n * config.params.k)
    expected = [
        config.trials * float(_exact_pmf(config.params, config.n, i))
        for i in range(top + 1)
    ]
    observed = [hist.get(i, 0) for i in range(top + 1)]
    stat, dof = _chi_square_merged(observed, expected)
    # One bin holds all `trials` observed and expected, so the exact
    # statistic is 0 and any nonzero stat is float rounding.
    p_value = 1.0 if dof < 1 else _chi2.sf(stat, dof)
    mean_emp = sum(i * c for i, c in hist.items()) / config.trials
    return p_value, mean_emp


class _chi2:
    """Chi-square upper tail for integer dof, called as ``_chi2.sf(x, dof)``.

    perfbench's tracer times the tail by patching this module-level name,
    so it keeps the shape of a distribution object with an ``sf``.
    """

    @staticmethod
    def sf(x: float, dof: int) -> float:
        """P[X > x] for X ~ chi-square(dof), dof >= 1.

        With h = x/2, even dof is the Poisson sum
        e^-h sum_{i<dof/2} h^i / i!, and odd dof is erfc(sqrt h) plus
        e^-h sum_{i<(dof-1)/2} h^(i+1/2) / Gamma(i+3/2). Each term is formed
        in log space, so e^-h cannot underflow when dof (and with it x) is
        large.
        """
        if x <= 0:
            return 1.0
        h = x / 2
        log_h = math.log(h)
        s = (dof % 2) / 2
        head = math.erfc(math.sqrt(h)) if s else 0.0
        tail = head + math.fsum(
            math.exp((i + s) * log_h - h - math.lgamma(i + s + 1))
            for i in range(dof // 2)
        )
        return min(tail, 1.0)  # rounding can lift a near-1 sum past 1


def _chi_square_merged(observed, expected):
    """Pearson statistic after merging adjacent bins until each expects 5."""
    bins: list[tuple[float, float]] = []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            bins.append((acc_o, acc_e))
            acc_o = acc_e = 0.0
    if acc_e > 0 or acc_o > 0:
        if bins:
            last_o, last_e = bins[-1]
            bins[-1] = (last_o + acc_o, last_e + acc_e)
        else:
            bins.append((acc_o, acc_e))
    stat = sum((o - e) ** 2 / e for o, e in bins if e > 0)
    return stat, len(bins) - 1


# --------------------------------------------------------------------------
# Fixed validation suite
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ValidationRow:
    m: int
    n: int
    k: int
    variant: str
    exact: float
    empirical: float
    std_err: float
    z_score: float
    mean_exact: float
    mean_empirical: float
    mean_z: float
    chi2_p: float


def validation_suite() -> list[TrialConfig]:
    """Twelve configurations spanning both variants and m in {16,32,64,128}."""
    rng_seed = 20_240_913
    shapes = [
        (16, 3, 2),
        (16, 5, 3),
        (32, 8, 3),
        (32, 6, 2),
        (64, 12, 4),
        (128, 24, 4),
    ]
    configs = []
    for m, n, k in shapes:
        for variant in (FilterVariant.STANDARD, FilterVariant.CLASSIC):
            params = FilterParams(m=m, k=k, variant=variant, seed=rng_seed ^ m)
            configs.append(
                TrialConfig(params=params, n=n, trials=10_000, probes=10,
                            rng_seed=rng_seed)
            )
    return configs


def run_validation(configs: list[TrialConfig], workers: int = 1) -> list[ValidationRow]:
    """Empirical FPR and bit-sum statistics against the exact values.

    Trials run in this process. ``workers`` is accepted only because the
    benchmark's workloads still pass ``workers=1``; any other value raises
    ValueError before a trial runs.
    """
    if workers != 1:
        raise ValueError(f"trials run in one process; got workers={workers}")
    if any(config.probes < 1 for config in configs):
        raise ValueError("need at least one probe")
    rows = []
    for config in configs:
        params, n = config.params, config.n
        positives, total, hist = run_trials(config)
        exact = float(fpr_exact(params.m, n, params.k, params.variant))
        se = math.sqrt(exact * (1 - exact) / total)
        rate = positives / total
        mu, var = _exact_mean_var(params, n)
        p, mean_emp = _occupancy_fit(config, hist)
        mean_se = math.sqrt(float(var) / config.trials)
        rows.append(
            ValidationRow(
                m=params.m,
                n=n,
                k=params.k,
                variant=params.variant.name.lower(),
                exact=exact,
                empirical=rate,
                std_err=se,
                z_score=(rate - exact) / se if se else 0.0,
                mean_exact=float(mu),
                mean_empirical=mean_emp,
                mean_z=(mean_emp - float(mu)) / mean_se if mean_se else 0.0,
                chi2_p=p,
            )
        )
    return rows


def validation_csv(rows: list[ValidationRow]) -> str:
    lines = ["m,n,k,variant,exact,empirical,std_err,z_score"]
    for r in rows:
        lines.append(
            f"{r.m},{r.n},{r.k},{r.variant},{r.exact:.10g},"
            f"{r.empirical:.10g},{r.std_err:.6g},{r.z_score:+.3f}"
        )
    return "\n".join(lines) + "\n"


def validation_summary(rows: list[ValidationRow]) -> str:
    out = ["configuration            fpr z   mean z   chi2 p"]
    for r in rows:
        tag = f"m={r.m} n={r.n} k={r.k} {r.variant}"
        out.append(
            f"{tag:<24} {r.z_score:+6.2f}  {r.mean_z:+6.2f}   {r.chi2_p:.4f}"
        )
    worst = max(abs(r.z_score) for r in rows)
    out.append(f"worst |z| = {worst:.2f} over {len(rows)} configurations")
    return "\n".join(out) + "\n"


# --------------------------------------------------------------------------
# Conjecture scanning (reports, never assertions)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class OrderingRow:
    m: int
    n: int
    k_classic: int
    k_classic_max: int
    k_standard: int
    k_standard_max: int
    lower: float
    upper: float
    ok: bool


@dataclass(frozen=True)
class MonotonicityRow:
    m: int
    k: int
    eps_k: float
    eps_next: float
    ok: bool


@dataclass(frozen=True)
class ConjectureReport:
    ordering: list[OrderingRow]
    monotonicity: list[MonotonicityRow]

    def to_csv(self) -> str:
        lines = ["check,m,n_or_k,k_classic,k_standard,lower,upper,ok"]
        for r in self.ordering:
            kc, ks = (
                str(lo) if lo == hi else f"{lo}-{hi}"
                for lo, hi in ((r.k_classic, r.k_classic_max), (r.k_standard, r.k_standard_max))
            )
            lines.append(
                f"ordering,{r.m},{r.n},{kc},{ks},"
                f"{r.lower:.4f},{r.upper:.4f},{int(r.ok)}"
            )
        for r in self.monotonicity:
            lines.append(
                f"peak-monotone,{r.m},{r.k},,,{r.eps_k:.6f},{r.eps_next:.6f},"
                f"{int(r.ok)}"
            )
        return "\n".join(lines) + "\n"


def conjecture_scan(
    m_values,
    n_values,
    k_values=None,
) -> ConjectureReport:
    """Scan the two open conjectures and report every violation found.

    Ordering: m/(2n) <= k*_C <= k*_S <= (m/n) ln2 whenever m/n >= 1/ln2,
    and k*_C = k*_S = 1 otherwise. Peak monotonicity: classic peak
    efficiency increases in k for k <= m/2 - 1 (checked on k_values when
    given). Violations are reported, never raised. Tie ranges are
    optimal_k's k..k_max. Every m and n must be >= 1, checked before the
    first cell.
    """
    m_values, n_values = list(m_values), list(n_values)
    for name, values in (("m", m_values), ("n", n_values)):
        if bad := [v for v in values if v < 1]:
            raise ValueError(f"conjecture_scan needs {name} >= 1; got {name}={bad[0]}")
    ordering = []
    for m in m_values:
        for n in n_values:
            kc_lo, _, kc_hi = optimal_k(m, n, FilterVariant.CLASSIC)
            ks_lo, _, ks_hi = optimal_k(m, n, FilterVariant.STANDARD)
            if m / n >= 1 / math.log(2):
                lower = m / (2 * n)
                upper = optimal_k_estimate(m, n)
                # k* is an integer, so the real-valued bracket is read as
                # floor(lower) <= k*_C and k*_S <= ceil(upper); ties get
                # their most favorable representatives
                ok = (
                    math.floor(Fraction(m, 2 * n)) <= kc_hi
                    and kc_lo <= ks_hi
                    and ks_lo <= math.ceil(upper)
                )
            else:
                lower, upper = 1.0, 1.0
                ok = kc_lo == 1 and ks_lo == 1
            ordering.append(
                OrderingRow(m=m, n=n, k_classic=kc_lo, k_classic_max=kc_hi,
                            k_standard=ks_lo, k_standard_max=ks_hi,
                            lower=lower, upper=upper, ok=ok)
            )
    monotonicity = []
    if k_values:
        # row k's upper peak is row k + 1's lower one: compute each peak once
        peak = cache(lambda m, k: peak_efficiency(m, k, FilterVariant.CLASSIC).epsilon)
        for m, k in k_values:
            if k < 1 or k > m // 2 - 1:
                continue
            eps_k, eps_next = peak(m, k), peak(m, k + 1)
            monotonicity.append(
                MonotonicityRow(m=m, k=k, eps_k=eps_k, eps_next=eps_next,
                                ok=eps_k < eps_next)
            )
    return ConjectureReport(ordering=ordering, monotonicity=monotonicity)
