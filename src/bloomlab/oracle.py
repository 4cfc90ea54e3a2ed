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

__all__ = [
    "classic_occupancy_counts",
    "committee_occupancy_counts",
    "enumerate_classic_pmf",
    "enumerate_committee_pmf",
    "enumerate_fpr_standard",
    "enumerate_fpr_classic",
]


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
    return committee_occupancy_counts(m, n, 1)  # size-1 batches: single urns


def committee_occupancy_counts(m: int, n: int, k: int) -> list[int]:
    """hist[i] = number of the C(m,k)^n batch placements with occupancy i."""
    return _occupancy_hist(_mask_counts_committee(m, n, k), m)


def enumerate_classic_pmf(m: int, n: int) -> list[Fraction]:
    total = m**n
    return [Fraction(c, total) for c in classic_occupancy_counts(m, n)]


def enumerate_committee_pmf(m: int, n: int, k: int) -> list[Fraction]:
    total = comb(m, k) ** n
    return [Fraction(c, total) for c in committee_occupancy_counts(m, n, k)]


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
