"""Exact combinatorial primitives: Stirling numbers, falling factorials,
finite-difference operators over arbitrary-precision rationals, the one
binomial-power product prod C(t,k)^n over a batch law's (n, k) departments,
the reduction _lowest_terms of a fraction whose denominator is a power of a
small known base, and the certified value _Certified: lo <= x <= hi, x
formed only if needed. Everything here is exact integer or rational
arithmetic.

Alternating sums are accumulated in integer (or exact rational) arithmetic
and divided once at the end, so no cancellation error is possible. All
functions are pure, and the module keeps no table or other state.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from math import comb, gcd
from typing import Callable, Iterable, Sequence, TypeVar, Union

__all__ = [
    "Scalar",
    "stirling2",
    "falling_factorial",
    "binom_poly",
    "nabla_power",
    "nabla_power_row",
    "rho",
    "log2_fraction",
]

# Integer-valued operators return plain int; anything mixing rationals
# returns Fraction. The two compare and combine exactly.
Scalar = Union[int, Fraction]
_T = TypeVar("_T")


# --------------------------------------------------------------------------
# Stirling numbers of the second kind
# --------------------------------------------------------------------------


def stirling2(n: int, i: int) -> int:
    """S(n, i), the number of partitions of an n-set into i nonempty blocks,
    as nabla^i[x^n]_i / i!: the difference counts the surjections of an
    n-set onto an i-set, i! per partition. Out-of-range arguments (i > n,
    or i == 0 with n > 0) give 0.
    """
    if n < 0 or i < 0:
        raise ValueError("stirling2 requires n >= 0 and i >= 0")
    return nabla_power(i, n, i) // math.factorial(i)


# --------------------------------------------------------------------------
# Falling factorials and generalized binomials
# --------------------------------------------------------------------------


def falling_factorial(x: Scalar, r: int) -> Scalar:
    """x(x-1)...(x-r+1); the empty product (r = 0) is 1.

    Accepts integer or rational x, so generalized binomials with rational
    upper argument come for free.
    """
    if r < 0:
        raise ValueError("falling_factorial requires r >= 0")
    out: Scalar = 1
    for j in range(r):
        out *= x - j
    return out


def binom_poly(x: Scalar, r: int) -> Scalar:
    """Binomial coefficient as the degree-r polynomial x_(r) / r!.

    Defined for any rational (or negative integer) x; needed wherever a
    difference identity is evaluated off the combinatorial lattice and for
    bounds of the form C(mu, r) with rational mu.
    """
    ff = falling_factorial(x, r)
    if isinstance(ff, int):
        q, rem = divmod(ff, math.factorial(r))
        return q if rem == 0 else Fraction(ff, math.factorial(r))
    return ff / math.factorial(r)


# --------------------------------------------------------------------------
# Finite differences
# --------------------------------------------------------------------------


def nabla_power(m: Scalar, n: int, r: int) -> Scalar:
    """r-th backward difference of x**n evaluated at x = m.

    Expands to sum_{j=0}^{r} (-1)^j C(r,j) (m-j)^n.  Differences of order
    beyond the degree vanish exactly.
    """
    if n < 0 or r < 0:
        raise ValueError("nabla_power requires n >= 0 and r >= 0")
    if r > n:
        return 0
    return _alternating_power_sum(
        map(comb, repeat(r), range(r + 1)), (m - j for j in range(r + 1)), n
    )


def _alternating_power_sum(
    coeffs: Iterable[int], bases: Iterable[Scalar], e: int
) -> Scalar:
    """sum_j (-1)^j coeffs[j] * bases[j]**e, in exact arithmetic.

    The one alternating sum behind nabla_power, rho, the
    classic rate (coeffs C(k,j), bases C(m-j,k), e = n) and the empty-urn
    sum of every occupancy moment (coeffs C(m,j) nabla^j[g]_m, bases
    prod C(m-j,k)^n, e = 1).
    e = 1 skips the power, so a caller that already holds the raised
    powers passes them as bases with e = 1.
    """
    powers = bases if e == 1 else (c**e for c in bases)
    total: Scalar = 0
    sign = 1
    for a, p in zip(coeffs, powers):
        total += sign * a * p
        sign = -sign
    return total


def _difference_row(vals: list[int]) -> list[int]:
    """[nabla^0, nabla^1, ..., nabla^r] of f at x, given vals[j] = f(x - j)
    for j = 0..r.

    One difference table, so the whole row costs O(r^2) subtractions
    instead of O(r^2) binomial-weighted products.
    """
    out = [vals[0]]
    for _ in range(len(vals) - 1):
        vals = [vals[j] - vals[j + 1] for j in range(len(vals) - 1)]
        out.append(vals[0])
    return out


def nabla_power_row(m: int, n: int, r: int) -> list[int]:
    """[nabla^0, nabla^1, ..., nabla^r] of x**n at x = m, as exact integers."""
    if n < 0 or r < 0:
        raise ValueError("nabla_power_row requires n >= 0 and r >= 0")
    return _difference_row([(m - j) ** n for j in range(r + 1)])


# --------------------------------------------------------------------------
# Lowest terms against a known base
# --------------------------------------------------------------------------


def _coprime_fraction(num: int, den: int) -> Fraction:
    """num / den as given, for coprime num and den > 0 (CPython up to 3.11)."""
    return Fraction(num, den, _normalize=False)


if hasattr(Fraction, "_from_coprime_ints"):  # CPython 3.12 and later
    _coprime_fraction = Fraction._from_coprime_ints
else:
    try:
        _coprime_fraction(1, 1)
    except TypeError:  # neither: Fraction reduces again, correct if slower
        _coprime_fraction = Fraction


# the denominator size up to which _lowest_terms leaves the reduction to
# Fraction: both take 2-3 us at about 300 bits (CPython 3.11, x86-64)
_GCD_BITS = 320


def _lowest_terms(num: int, den: int, base: int) -> Fraction:
    """num / den as a Fraction, for den >= 1 whose every prime factor
    divides base: m for m^e, C(m, k) for C(m, k)^n, prod C(m, k_d) for
    prod C(m, k_d)^(n_d). It equals Fraction(num, den), built without
    Fraction's general gcd, which is quadratic in the bit length.

    A prime dividing num and den divides d = gcd(num mod base, base), cut
    to gcd(d, den) where den % d != 0; at d = 1, num and den are coprime.
    Each round strips the largest power d^v dividing both: d, then d^2,
    d^4, ... while they divide, then the same powers back down, at most
    2 log2(v + 1) trial divisions of num (a loop taking one d per step
    takes v). The next round's d properly divides this one's, and a round
    whose d holds a prime below its full power in base strips that prime
    out, so there are at most 2 omega(base) + 1 rounds (omega counts
    distinct primes); a rate takes one or two. Each step divides by d or a
    power of it, in time linear in num's length while that power is small.
    Up to _GCD_BITS bits of den, Fraction's own gcd is as fast and is used.
    """
    if den.bit_length() <= _GCD_BITS:
        return Fraction(num, den)
    while True:
        d = gcd(num % base, base)
        if den % d:
            d = gcd(d, den % d)
        if d == 1:
            return _coprime_fraction(num, den)
        num, den = num // d, den // d
        powers = [d]
        while True:
            q = powers[-1] ** 2
            quo, rem = divmod(num, q)
            if rem or den % q:
                break
            num, den = quo, den // q
            powers.append(q)
        # d^(2^J) failed after d^(2^J - 1) came off, J = len(powers): what
        # is left is under 2^J powers of d, a sum of distinct powers above
        for q in reversed(powers):
            quo, rem = divmod(num, q)
            if not rem and not den % q:
                num, den = quo, den // q


# --------------------------------------------------------------------------
# Normalized differences of binomial products
# --------------------------------------------------------------------------


def _binom_product(t: int, departments: Iterable[tuple[int, int]]) -> int:
    """prod C(t,k)^n over (n, k) in departments: the number of ways the
    batches land inside t given urns (t >= 0)."""
    out = 1
    for n, k in departments:
        out *= comb(t, k) ** n
    return out


def _binom_root(t: int, departments: Iterable[tuple[int, int]]) -> int:
    """prod C(t,k) over (n, k) in departments: every prime factor of
    _binom_product(t, departments) divides it, so _lowest_terms reduces a
    law's fractions against it."""
    return _binom_product(t, ((1, k) for _, k in departments))


def _exact_cover_counts(departments: Sequence[tuple[int, int]], top: int) -> list[int]:
    """[c_0, ..., c_top], c_i = Delta^i[prod C(x,k)^n]_0 >= 0: the number of
    ways the batches land inside a given i-set and cover all of it."""
    row = _difference_row([_binom_product(t, departments) for t in range(top + 1)])
    # _difference_row of f(0), f(1), ... gives (-1)^i Delta^i f(0)
    return [-d if i & 1 else d for i, d in enumerate(row)]


def rho(r: int, s: int, departments: Sequence[tuple[int, int]]) -> Fraction:
    """nabla^r [ prod C(x,k)^n / C(s,k)^n ] at x = s over (n, k) in
    departments, by direct sum, for 0 <= r <= s (0 beyond the degree).

    This is the normalized difference driving every batch-occupancy moment;
    rho(0, s) == 1 and rho(r, s) lies in [0, 1].
    """
    if not 0 <= r <= s:
        raise ValueError("rho requires 0 <= r <= s")
    if not departments or any(n < 1 or not 1 <= k <= s for n, k in departments):
        raise ValueError("rho requires departments of n >= 1 batches of 1 <= k <= s")
    values = [_binom_product(s - j, departments) for j in range(r + 1)]
    coeffs = map(comb, repeat(r), range(r + 1))
    return _lowest_terms(
        _alternating_power_sum(coeffs, values, 1),
        values[0],
        _binom_root(s, departments),
    )


# --------------------------------------------------------------------------
# Certified values
# --------------------------------------------------------------------------


class _Certified:
    """A rational x known to lie in [lo, hi], with a thunk for x itself.

    exact() calls the thunk at most once, never when lo == hi, and narrows
    the bracket to x. read(g), for g monotone, is g(lo) where g(lo) == g(hi)
    (g is constant on the bracket) and g(exact()) otherwise: Ziv's rounding
    test."""

    def __init__(self, lo: Scalar, hi: Scalar, value: Callable[[], Scalar]):
        self.lo, self.hi, self._value = lo, hi, value

    def exact(self) -> Scalar:
        if self.lo != self.hi:
            self.lo = self.hi = self._value()
        return self.lo

    def read(self, g: Callable[[Scalar], _T]) -> _T:
        low = g(self.lo)
        return low if low == g(self.hi) else g(self.exact())


# --------------------------------------------------------------------------
# Logarithms of exact rationals
# --------------------------------------------------------------------------


def log2_fraction(q: Scalar) -> float:
    """log2 of a positive rational, accurate to ~1 ulp regardless of scale.

    Works far outside float range (FPRs near 2**-500 are routine here):
    the bit-length difference carries the exponent and a 64-bit mantissa
    quotient carries the fraction.
    """
    q = Fraction(q)
    if q <= 0:
        raise ValueError("log2_fraction requires a positive argument")
    n, d = q.numerator, q.denominator
    sn = n.bit_length() - 64
    sd = d.bit_length() - 64
    mn = n >> sn if sn > 0 else n << -sn
    md = d >> sd if sd > 0 else d << -sd
    return (sn - sd) + math.log2(mn / md)
