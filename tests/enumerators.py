"""Brute-force references that only the tests use.

Union and intersection occupancy by OR/AND-combining the per-department
mask distributions of `bloomlab.oracle`, and moments of an enumerated
p.m.f. Like the oracle, they count placements directly, so they check the
analytic union, intersection and moment formulas independently. Stirling
numbers come from their triangle, which shares nothing with the kernel's
difference form.
"""

from fractions import Fraction
from math import comb

from bloomlab.occupancy import CommitteeSpec
from bloomlab.oracle import _mask_counts_committee, _occupancy_hist


# _STIRLING_ROWS[t][i] == S(t, i); rows are appended as callers reach them
_STIRLING_ROWS = [(1,)]


def stirling_row(n: int) -> tuple[int, ...]:
    """(S(n, 0), ..., S(n, n)), Stirling numbers of the second kind, by the
    triangle S(t, i) = i S(t-1, i) + S(t-1, i-1) from S(0, 0) = 1."""
    while len(_STIRLING_ROWS) <= n:
        prev = _STIRLING_ROWS[-1] + (0,)
        row = (i * prev[i] + prev[i - 1] for i in range(1, len(prev)))
        _STIRLING_ROWS.append((0, *row))
    return _STIRLING_ROWS[n]


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
