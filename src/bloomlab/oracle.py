"""Brute-force enumeration oracles.

Everything here counts placements directly -- no Stirling numbers, no
finite differences, no moment identities -- so these values are an
independent check on the analytic formulas. Placement sequences are
aggregated through occupancy bitmasks: the mask-weighted walk visits every
one of the m^n (or C(m,k)^n) equally likely outcomes exactly once, it just
adds up the ones that share a mask. Exact rationals throughout; intended
for m and total ball counts small enough that 2^m state tables fit easily.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb

from .occupancy import CommitteeSpec

__all__ = [
    "classic_occupancy_counts",
    "committee_occupancy_counts",
    "enumerate_classic_pmf",
    "enumerate_committee_pmf",
    "enumerate_union_pmf",
    "enumerate_intersection_pmf",
    "enumerate_moment",
    "enumerate_fpr_standard",
    "enumerate_fpr_classic",
]


def _mask_counts_classic(m: int, n: int) -> dict[int, int]:
    """mask -> number of length-n urn sequences occupying exactly mask."""
    counts = {0: 1}
    for _ in range(n):
        nxt: dict[int, int] = {}
        for mask, c in counts.items():
            for u in range(m):
                key = mask | (1 << u)
                nxt[key] = nxt.get(key, 0) + c
        counts = nxt
    return counts


def _mask_counts_committee(m: int, n: int, k: int) -> dict[int, int]:
    """mask -> number of length-n batch sequences occupying exactly mask."""
    subsets = [sum(1 << u for u in c) for c in combinations(range(m), k)]
    counts = {0: 1}
    for _ in range(n):
        nxt: dict[int, int] = {}
        for mask, c in counts.items():
            for s in subsets:
                key = mask | s
                nxt[key] = nxt.get(key, 0) + c
        counts = nxt
    return counts


def _occupancy_hist(mask_counts: dict[int, int], m: int) -> list[int]:
    hist = [0] * (m + 1)
    for mask, c in mask_counts.items():
        hist[mask.bit_count()] += c
    return hist


def classic_occupancy_counts(m: int, n: int) -> list[int]:
    """hist[i] = number of the m^n placements with occupancy exactly i."""
    return _occupancy_hist(_mask_counts_classic(m, n), m)


def committee_occupancy_counts(m: int, n: int, k: int) -> list[int]:
    """hist[i] = number of the C(m,k)^n batch placements with occupancy i."""
    return _occupancy_hist(_mask_counts_committee(m, n, k), m)


def enumerate_classic_pmf(m: int, n: int) -> list[Fraction]:
    total = m**n
    return [Fraction(c, total) for c in classic_occupancy_counts(m, n)]


def enumerate_committee_pmf(m: int, n: int, k: int) -> list[Fraction]:
    total = comb(m, k) ** n
    return [Fraction(c, total) for c in committee_occupancy_counts(m, n, k)]


def enumerate_union_pmf(spec: CommitteeSpec) -> list[Fraction]:
    """Occupancy of urns hit by ANY department, by OR-combining the
    per-department mask distributions."""
    m = spec.m
    counts = {0: 1}
    total = 1
    for n_d, k_d in spec.departments:
        dept = _mask_counts_committee(m, n_d, k_d)
        total *= comb(m, k_d) ** n_d
        nxt: dict[int, int] = {}
        for mask, c in counts.items():
            for dmask, dc in dept.items():
                key = mask | dmask
                nxt[key] = nxt.get(key, 0) + c * dc
        counts = nxt
    hist = _occupancy_hist(counts, m)
    return [Fraction(c, total) for c in hist]


def enumerate_intersection_pmf(spec: CommitteeSpec) -> list[Fraction]:
    """Occupancy of urns hit by EVERY department (AND-combination)."""
    m = spec.m
    counts = {(1 << m) - 1: 1}
    total = 1
    for n_d, k_d in spec.departments:
        dept = _mask_counts_committee(m, n_d, k_d)
        total *= comb(m, k_d) ** n_d
        nxt: dict[int, int] = {}
        for mask, c in counts.items():
            for dmask, dc in dept.items():
                key = mask & dmask
                nxt[key] = nxt.get(key, 0) + c * dc
        counts = nxt
    hist = _occupancy_hist(counts, m)
    return [Fraction(c, total) for c in hist]


def enumerate_moment(pmf: list[Fraction], r: int, kind: str = "raw") -> Fraction:
    """Moment of an enumerated pmf: kind in {raw, factorial, binomial}."""
    total = Fraction(0)
    for i, p in enumerate(pmf):
        if kind == "raw":
            w = i**r
        elif kind == "factorial":
            w = 1
            for j in range(r):
                w *= i - j
        elif kind == "binomial":
            w = comb(i, r)
        else:
            raise ValueError(f"unknown moment kind {kind!r}")
        total += p * w
    return total


def enumerate_fpr_standard(m: int, n: int, k: int) -> Fraction:
    """Average pass probability over all m^(nk) fills and m^k probes.

    For a fill with bit sum b, exactly b^k of the m^k probe sequences pass.
    """
    hist = classic_occupancy_counts(m, n * k)
    num = sum(c * b**k for b, c in enumerate(hist))
    return Fraction(num, m ** (n * k) * m**k)


def enumerate_fpr_classic(m: int, n: int, k: int) -> Fraction:
    """Average pass probability over all C(m,k)^n fills and C(m,k) probes.

    For a fill with bit sum b, exactly C(b,k) of the C(m,k) probe subsets
    pass.
    """
    hist = committee_occupancy_counts(m, n, k)
    num = sum(c * comb(b, k) for b, c in enumerate(hist))
    return Fraction(num, comb(m, k) ** n * comb(m, k))
