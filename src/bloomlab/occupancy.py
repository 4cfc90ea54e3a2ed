"""Exact occupancy distributions for uniform and batch ball placements.

Four families, all over m urns:

* classic   -- n balls cast independently and uniformly.
* committee -- n batches of k balls, the balls of a batch landing in k
               distinct urns (k = 1 recovers classic).
* union     -- several departments each casting batches; an urn counts if
               any department hits it.
* intersection -- same setup; an urn counts only if every department hits it.

Everything returns exact rationals. Every law takes its departments as
CommitteeSpec's (n, k) pairs, n batches of k balls (classic is (n, 1)).
Classic, committee and union are one law: a fixed set of j urns stays
empty with probability prod (C(m-j,k)/C(m,k))^n. Every moment of that law
comes from one empty-urn sum, Newton's expansion of g(m - Y) in C(Y, j)
for Y the number of empty urns:

    E[g(X)] = sum_j (-1)^j C(m,j) nabla^j[g]_m prod C(m-j,k)^n / prod C(m,k)^n

over j <= min(deg g, m), with g = x^r, x_(r) or C(x,r) for the three
moment kinds. Every p.m.f. of the three, classic included, is one row of
a forward-difference table of the same product. The product and the
difference loops live in kernel, and every result is reduced there against
prod C(m,k), whose power the denominator is (kernel._lowest_terms), not by
Fraction's general gcd.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import comb, prod
from typing import Sequence

from .kernel import (
    _alternating_power_sum,
    _binom_product,
    _binom_root,
    _difference_row,
    _exact_cover_counts,
    _lowest_terms,
    binom_poly,
    falling_factorial,
    nabla_power,
    nabla_power_row,
    rho,
    stirling2,  # not called here: perfbench's tracer wraps it (ROADMAP item 1)
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


# --------------------------------------------------------------------------
# Classic occupancy
# --------------------------------------------------------------------------


def classic_pmf(m: int, n: int, i: int) -> Fraction:
    """P[X = i] for n uniform balls in m urns, S(n,i) m_(i) / m^n: the
    committee law with batches of one urn, read from its p.m.f. row."""
    if m < 1 or n < 0:
        raise ValueError("classic_pmf requires m >= 1 and n >= 0")
    return _batch_pmf(m, ((n, 1),), i)


def classic_raw_moment(m: int, n: int, r: int) -> Fraction:
    """E[X^r], the empty-urn sum with batches of one urn: j urns left empty
    by the n balls and covered by r independent uniform draws,

        E[X^r] = sum_j (-1)^j C(m,j) nabla^j[x^r]_m (m-j)^n / m^n.

    The difference table is over r-th powers, and the sum runs to
    min(r, m) rather than m, which keeps high-precision moments cheap even
    for large m.
    """
    if m < 1 or n < 0:
        raise ValueError("classic_raw_moment requires m >= 1 and n >= 0")
    return _moment(m, ((n, 1),), r, MomentKind.RAW)


def classic_mean_variance(m: int, n: int) -> tuple[Fraction, Fraction]:
    """Mean and variance of the classic occupancy number, from the raw
    moments of order 1 and 2."""
    if m < 1 or n < 0:
        raise ValueError("classic_mean_variance requires m >= 1 and n >= 0")
    return _mean_variance(m, ((n, 1),))


# --------------------------------------------------------------------------
# Committee occupancy (fixed batch size)
# --------------------------------------------------------------------------


def committee_pmf(m: int, n: int, k: int, i: int) -> Fraction:
    """P[X = i] for n batches of k distinct-urn balls in m urns."""
    if not 1 <= k <= m:
        raise ValueError("committee_pmf requires 1 <= k <= m")
    if n < 0:
        raise ValueError("batch count must be >= 0")
    return _batch_pmf(m, ((n, k),), i)


def _batch_pmf(m: int, departments: tuple[tuple[int, int], ...], i: int) -> Fraction:
    """P[X = i] for m urns hit by n batches of size k for each (n, k) in
    departments, read from the law's cached p.m.f. row."""
    if i < 0 or i > m:
        return Fraction(0)
    row = _batch_pmf_row(m, departments)
    return row[i] if i < len(row) else Fraction(0)


@lru_cache(maxsize=4)
def _batch_pmf_row(
    m: int, departments: tuple[tuple[int, int], ...]
) -> tuple[Fraction, ...]:
    """[P[X = 0], ..., P[X = top]], top = min(m, sum n*k) the largest
    reachable count: C(m, i) c_i / prod C(m,k)^n for the exact cover counts
    c_i. One difference table gives every c_i, so a sweep over i (a
    chi-square fit, a normalization check) costs one table instead of a
    fresh i-term sum per i. Cached, as an immutable tuple, because callers
    ask for the law one i at a time.
    """
    top = min(m, sum(n * k for n, k in departments))
    denom, root = _binom_product(m, departments), _binom_root(m, departments)
    return tuple(
        _lowest_terms(comb(m, i) * c, denom, root)
        for i, c in enumerate(_exact_cover_counts(departments, top))
    )


def _empty_urn_sum(
    m: int, departments: Sequence[tuple[int, int]], row: list[int]
) -> int:
    """sum_j (-1)^j C(m,j) row[j] prod C(m-j,k)^n, the numerator of
    E[g(X)] over prod C(m,k)^n for row[j] = nabla^j[g]_m.

    Newton's expansion g(m - Y) = sum_j (-1)^j nabla^j[g]_m C(Y,j) in the
    empty-urn count Y, with E[C(Y,j)] = C(m,j) prod (C(m-j,k)/C(m,k))^n.
    The row stops at j = min(deg g, m): higher differences of g vanish and
    C(Y,j) = 0 for j > m.
    """
    return _alternating_power_sum(
        (comb(m, j) * d for j, d in enumerate(row)),
        (_binom_product(m - j, departments) for j in range(len(row))),
        1,
    )


def _moment(
    m: int, departments: Sequence[tuple[int, int]], r: int, kind: MomentKind
) -> Fraction:
    """r-th moment, in the given kind, of the occupancy of m urns hit by n
    batches of size k for each (n, k) in departments."""
    if r < 0:
        raise ValueError("moment order must be >= 0")
    return _lowest_terms(
        _moment_numerator(m, departments, r, kind),
        _binom_product(m, departments),
        _binom_root(m, departments),
    )


def _moment_numerator(
    m: int, departments: Sequence[tuple[int, int]], r: int, kind: MomentKind
) -> int:
    """_moment's value times prod C(m,k)^n, an integer."""
    top = min(r, m)
    if kind is MomentKind.RAW:
        row = nabla_power_row(m, r, top)
    else:
        g = falling_factorial if kind is MomentKind.FACTORIAL else comb
        row = _difference_row([g(m - j, r) for j in range(top + 1)])
    return _empty_urn_sum(m, departments, row)


def _mean_variance(
    m: int, departments: Sequence[tuple[int, int]]
) -> tuple[Fraction, Fraction]:
    """E[X] = s_1 / D and Var X = (s_2 D - s_1^2) / D^2 from the raw
    empty-urn numerators s_r over D = prod C(m,k)^n, each reduced once."""
    first = _moment_numerator(m, departments, 1, MomentKind.RAW)
    second = _moment_numerator(m, departments, 2, MomentKind.RAW)
    denom, root = _binom_product(m, departments), _binom_root(m, departments)
    return (
        _lowest_terms(first, denom, root),
        _lowest_terms(second * denom - first * first, denom * denom, root),
    )


def committee_moment(m: int, n: int, k: int, r: int, kind: MomentKind) -> Fraction:
    """r-th moment of the committee occupancy number, in the given kind."""
    if not 1 <= k <= m:
        raise ValueError("committee_moment requires 1 <= k <= m")
    if n < 0 or r < 0:
        raise ValueError("committee_moment requires n >= 0 and r >= 0")
    return _moment(m, ((n, k),), r, kind)


def committee_mean_variance(m: int, n: int, k: int) -> tuple[Fraction, Fraction]:
    """Mean and variance of the committee occupancy number, from the raw
    moments of order 1 and 2.

    The literature's printed closed form for the variance is not used: at
    (m, n, k) = (5, 2, 3) it is negative while the true variance is 9/25.
    """
    if not 1 <= k <= m:
        raise ValueError("committee_mean_variance requires 1 <= k <= m")
    if n < 0:
        raise ValueError("batch count must be >= 0")
    return _mean_variance(m, ((n, k),))


# --------------------------------------------------------------------------
# Committee union (variable batch sizes, any department split)
# --------------------------------------------------------------------------


def union_pmf(spec: CommitteeSpec, i: int) -> Fraction:
    """P[union occupancy = i]: urns hit by at least one department."""
    return _batch_pmf(spec.m, spec.departments, i)


def union_moment(spec: CommitteeSpec, r: int, kind: MomentKind) -> Fraction:
    """r-th moment of the union occupancy number, in the given kind."""
    return _moment(spec.m, spec.departments, r, kind)


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
    factors = [rho(r, spec.m, [d]) for d in spec.departments]
    return _lowest_terms(
        comb(spec.m, r) * prod(f.numerator for f in factors),
        prod(f.denominator for f in factors),
        _binom_root(spec.m, spec.departments),
    )


def intersection_pmf_table(spec: CommitteeSpec) -> list[Fraction]:
    """[P[X = 0], ..., P[X = m]] for the intersection occupancy."""
    return list(_intersection_pmf_row(spec))


@lru_cache(maxsize=4)
def _intersection_pmf_row(spec: CommitteeSpec) -> tuple[Fraction, ...]:
    """The intersection p.m.f., cached as an immutable tuple as _batch_pmf_row
    is. With q(w) the probability that w fixed urns are hit by every
    department (a product of per-department normalized differences),

        P[X = i] = C(m,i) (-1)^(m-i) nabla^(m-i)[q]_m,

    so one difference table over q inverts them all; O(m^2) integer
    operations per department (exact but intended for m up to a few
    hundred).
    """
    m = spec.m
    rows = [
        _difference_row([_binom_product(m - j, [d]) for j in range(m + 1)])
        for d in spec.departments
    ]
    denom = _binom_product(m, spec.departments)
    root = _binom_root(m, spec.departments)
    # joint[w] = q(w) * denom, listed from w = m down to 0
    joint = [1] * (m + 1)
    for w in range(m + 1):
        for row in rows:
            joint[m - w] *= row[w]
    # reversed, the row's entry i is nabla^(m-i)[q]_m * denom
    return tuple(
        _lowest_terms(comb(m, i) * (-d if (m - i) & 1 else d), denom, root)
        for i, d in enumerate(reversed(_difference_row(joint)))
    )


def intersection_pmf(spec: CommitteeSpec, i: int) -> Fraction:
    """P[intersection occupancy = i]: urns hit by every department."""
    if i < 0 or i > spec.m:
        return Fraction(0)
    return _intersection_pmf_row(spec)[i]


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
    lower = _lowest_terms(nabla_power(m, n * k, r), m ** (n * k), m)
    mu = m * (1 - Fraction(m - k, m) ** n)
    jensen = binom_poly(mu, r) / comb(m, r)
    upper = (mu / m) ** r
    return lower, jensen, upper
