"""Exact occupancy distributions for uniform and batch ball placements.

Four families, all over m urns:

* classic   -- n balls cast independently and uniformly.
* committee -- n batches of k balls, the balls of a batch landing in k
               distinct urns (k = 1 recovers classic).
* union     -- several departments each casting batches; an urn counts if
               any department hits it.
* intersection -- same setup; an urn counts only if every department hits it.

Everything returns exact rationals. The probability of any fixed set of i
urns being jointly occupied is a normalized i-th backward difference, and
p.m.f.s/moments are assembled from those differences in integer arithmetic.
The difference loops live in kernel; committee and union moments share one
assembly, committee being the single-department union.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .kernel import (
    _alternating_power_sum,
    _difference_row,
    binom_poly,
    falling_factorial,
    nabla_power,
    nabla_power_row,
    rho,
    stirling2,
)

__all__ = [
    "MomentKind",
    "CommitteeSpec",
    "classic_pmf",
    "classic_raw_moment",
    "classic_mean_variance",
    "committee_pmf",
    "committee_moment",
    "committee_mean_variance",
    "union_pmf",
    "union_moment",
    "intersection_moment",
    "intersection_pmf",
    "intersection_pmf_table",
    "moment_bounds",
]


class MomentKind(Enum):
    """Raw E[X^r], factorial E[X_(r)], or binomial E[C(X,r)] moments."""

    RAW = "raw"
    FACTORIAL = "factorial"
    BINOMIAL = "binomial"


@dataclass(frozen=True)
class CommitteeSpec:
    """Multivariate batch-placement parameters.

    m urns; each department d casts n_d batches of k_d balls. Total balls
    N = sum n_d * k_d.
    """

    m: int
    departments: tuple[tuple[int, int], ...]

    def __init__(self, m: int, departments) -> None:
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "departments", tuple(tuple(d) for d in departments))
        if m < 1:
            raise ValueError("urn count m must be positive")
        if not self.departments:
            raise ValueError("at least one department required")
        for n_d, k_d in self.departments:
            if n_d < 1:
                raise ValueError("batch count n_d must be positive")
            if not 1 <= k_d <= m:
                raise ValueError("batch size k_d must satisfy 1 <= k_d <= m")

    def flat_sizes(self) -> list[int]:
        """Batch sizes with multiplicity, one entry per batch."""
        out: list[int] = []
        for n_d, k_d in self.departments:
            out.extend([k_d] * n_d)
        return out


# --------------------------------------------------------------------------
# Classic occupancy
# --------------------------------------------------------------------------


def classic_pmf(m: int, n: int, i: int) -> Fraction:
    """P[X = i] for n uniform balls in m urns: S(n,i) * m_(i) / m^n."""
    if m < 1 or n < 0:
        raise ValueError("classic_pmf requires m >= 1 and n >= 0")
    if i < 0 or i > m:
        return Fraction(0)
    return Fraction(stirling2(n, i) * falling_factorial(m, i), m**n)


def classic_raw_moment(m: int, n: int, r: int) -> Fraction:
    """E[X^r] in the dual inclusion-exclusion form

        E[X^r] = sum_j (-1)^j C(m,j) nabla^j[x^r]_m (m-j)^n / m^n,

    j urns left empty by the n balls and covered by r independent uniform
    draws. The difference table is over r-th powers, and the sum runs to
    min(r, m) rather than m, which keeps high-precision moments cheap even
    for large m.
    """
    if r < 0:
        raise ValueError("moment order must be >= 0")
    return Fraction(_classic_moment_numerator(m, n, r), m**n)


def _classic_moment_numerator(m: int, n: int, r: int) -> int:
    """m^n E[X^r] for n balls in m urns, as an exact integer."""
    row = nabla_power_row(m, r, min(r, m))
    return _alternating_power_sum(
        (comb(m, j) * d for j, d in enumerate(row)), range(m, m - len(row), -1), n
    )


def classic_mean_variance(m: int, n: int) -> tuple[Fraction, Fraction]:
    """Closed-form mean and variance of the classic occupancy number."""
    if m < 1 or n < 0:
        raise ValueError("classic_mean_variance requires m >= 1 and n >= 0")
    a = Fraction(m - 1, m) ** n
    b = Fraction(m - 2, m) ** n
    mean = m * (1 - a)
    var = m * (a - b) - m * m * (a * a - b)
    return mean, var


# --------------------------------------------------------------------------
# Committee occupancy (fixed batch size)
# --------------------------------------------------------------------------


def committee_pmf(m: int, n: int, k: int, i: int) -> Fraction:
    """P[X = i] for n batches of k distinct-urn balls in m urns."""
    if not 1 <= k <= m:
        raise ValueError("committee_pmf requires 1 <= k <= m")
    if n < 0:
        raise ValueError("batch count must be >= 0")
    return _batch_pmf(m, [(k, n)], i)


def _batch_pmf(m: int, powers: list[tuple[int, int]], i: int) -> Fraction:
    """P[X = i] for m urns hit by e batches of size k for each (k, e) in
    powers, read from the law's cached p.m.f. row."""
    if i < 0 or i > m:
        return Fraction(0)
    row = _batch_pmf_row(m, tuple(powers))
    return row[i] if i < len(row) else Fraction(0)


@lru_cache(maxsize=4)
def _batch_pmf_row(
    m: int, powers: tuple[tuple[int, int], ...]
) -> tuple[Fraction, ...]:
    """[P[X = 0], ..., P[X = top]], top = min(m, sum k*e) the largest
    reachable count: C(m, i) Delta^i[prod C(x,k)^e]_0 / prod C(m,k)^e.

    One forward-difference table over f(t) = prod C(t,k)^e, t = 0..top,
    gives every Delta^i f(0), so a sweep over i (a chi-square fit, a
    normalization check) costs one table instead of a fresh i-term sum per
    i. Cached, as an immutable tuple, because callers ask for the law one i
    at a time.
    """
    top = min(m, sum(k * e for k, e in powers))
    denom = 1
    for k, e in powers:
        denom *= comb(m, k) ** e
    values = []
    for t in range(top + 1):
        f = 1
        for k, e in powers:
            f *= comb(t, k) ** e
        values.append(f)
    # _difference_row of f(0), f(1), ... gives (-1)^i Delta^i f(0)
    return tuple(
        Fraction(comb(m, i) * (-d if i & 1 else d), denom)
        for i, d in enumerate(_difference_row(values))
    )


def committee_moment(m: int, n: int, k: int, r: int, kind: MomentKind) -> Fraction:
    """r-th moment of the committee occupancy number, in the given kind."""
    if not 1 <= k <= m:
        raise ValueError("committee_moment requires 1 <= k <= m")
    if n < 0 or r < 0:
        raise ValueError("committee_moment requires n >= 0 and r >= 0")
    return _batch_moment(m, [k] * n, r, kind)


def _batch_moment(m: int, ks: list[int], r: int, kind: MomentKind) -> Fraction:
    """r-th moment of the occupancy of m urns hit by batches of sizes ks
    (one entry per batch), from the factorial moments m_(i) rho(i, m)."""

    def factorial_moment(i: int) -> Fraction:
        # X <= m; no batches (n = 0) leave a point mass at 0
        if not ks or i > m:
            return Fraction(int(i == 0))
        return falling_factorial(m, i) * rho(i, m, ks)

    if kind is MomentKind.FACTORIAL:
        return factorial_moment(r)
    if kind is MomentKind.BINOMIAL:
        return factorial_moment(r) / factorial(r)
    # S(r, 0) = 0 except at r = 0
    return sum(
        (stirling2(r, i) * factorial_moment(i) for i in range(1, min(r, m) + 1)),
        Fraction(int(r == 0)),
    )


def committee_mean_variance(m: int, n: int, k: int) -> tuple[Fraction, Fraction]:
    """Mean (closed form) and variance (from exact binomial moments).

    The variance uses E[X^2] - mu^2 with E[X^2] = mu + 2 E[C(X,2)]. The
    literature's printed closed form is not used: at (m, n, k) = (5, 2, 3)
    it is negative while the true variance is 9/25.
    """
    if not 1 <= k <= m:
        raise ValueError("committee_mean_variance requires 1 <= k <= m")
    if n < 0:
        raise ValueError("batch count must be >= 0")
    mean = m * (1 - Fraction(m - k, m) ** n)
    b2 = committee_moment(m, n, k, 2, MomentKind.BINOMIAL)
    var = mean + 2 * b2 - mean * mean
    return mean, var


# --------------------------------------------------------------------------
# Committee union (variable batch sizes, any department split)
# --------------------------------------------------------------------------


def union_pmf(spec: CommitteeSpec, i: int) -> Fraction:
    """P[union occupancy = i]: urns hit by at least one department."""
    return _batch_pmf(spec.m, [(k_d, n_d) for n_d, k_d in spec.departments], i)


def union_moment(spec: CommitteeSpec, r: int, kind: MomentKind) -> Fraction:
    """r-th moment of the union occupancy number, in the given kind."""
    if r < 0:
        raise ValueError("moment order must be >= 0")
    return _batch_moment(spec.m, spec.flat_sizes(), r, kind)


# --------------------------------------------------------------------------
# Committee intersection
# --------------------------------------------------------------------------


def intersection_moment(spec: CommitteeSpec, r: int) -> Fraction:
    """r-th binomial moment E[C(X,r)] of the intersection occupancy.

    Departments are independent, so the joint occupation probability of r
    fixed urns is a product of per-department normalized differences.
    """
    if r < 0:
        raise ValueError("moment order must be >= 0")
    if r > spec.m:
        return Fraction(0)
    out = Fraction(comb(spec.m, r))
    for n_d, k_d in spec.departments:
        out *= rho(r, spec.m, [k_d] * n_d)
    return out


def intersection_pmf_table(spec: CommitteeSpec) -> list[Fraction]:
    """[P[X = 0], ..., P[X = m]] for the intersection occupancy.

    Inverts the joint occupation probabilities with one inclusion-exclusion
    pass; O(m^2) integer operations after O(m^2) per-department difference
    tables (exact but intended for m up to a few hundred).
    """
    m = spec.m
    rows = [
        _difference_row([comb(m - j, k_d) ** n_d for j in range(m + 1)])
        for n_d, k_d in spec.departments
    ]
    denom = 1
    for n_d, k_d in spec.departments:
        denom *= comb(m, k_d) ** n_d
    # joint[w] = (unnormalized) P[w fixed urns all fully occupied] * denom
    joint = [1] * (m + 1)
    for w in range(m + 1):
        for row in rows:
            joint[w] *= row[w]
    table = []
    for i in range(m + 1):
        num = 0
        sign = 1
        for j in range(m - i + 1):
            num += sign * comb(m - i, j) * joint[i + j]
            sign = -sign
        table.append(Fraction(comb(m, i) * num, denom))
    return table


def intersection_pmf(spec: CommitteeSpec, i: int) -> Fraction:
    """P[intersection occupancy = i]: urns hit by every department."""
    if i < 0 or i > spec.m:
        return Fraction(0)
    return intersection_pmf_table(spec)[i]


# --------------------------------------------------------------------------
# Moment bounds
# --------------------------------------------------------------------------


def moment_bounds(
    m: int, n: int, k: int, r: int
) -> tuple[Fraction, Fraction, Fraction]:
    """(lower, jensen, upper) bracket for the normalized committee moment.

    With mu the committee mean, the sandwich

        nabla^r[x^(nk)]_m / m^(nk)  <=  C(mu,r)/C(m,r)
            <=  nabla^r[C(x,k)^n]_m / C(m,k)^n  <=  (mu/m)^r

    holds for 0 <= r <= min(k, m-k); other r are rejected.
    """
    if not 1 <= k <= m:
        raise ValueError("moment_bounds requires 1 <= k <= m")
    if n < 0:
        raise ValueError("batch count must be >= 0")
    if not 0 <= r <= min(k, m - k):
        raise ValueError("bounds hold only for 0 <= r <= min(k, m - k)")
    lower = Fraction(nabla_power(m, n * k, r), m ** (n * k))
    mu = m * (1 - Fraction(m - k, m) ** n)
    jensen = binom_poly(mu, r) / comb(m, r)
    upper = (mu / m) ** r
    return lower, jensen, upper
