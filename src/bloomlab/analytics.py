"""False-positive rates, bounds, optimizers, and efficiency analysis.

Two evaluation backends. The exact backend works in integer/rational
arithmetic and is authoritative: the alternating sums underneath these
formulas are catastrophically cancellative in floating point once rates
drop below ~1e-15, and interesting configurations reach 1e-43. The
recursive backend runs the same cancellation in 40-digit decimal; it is
neither accurate nor faster at the paper's configurations (see
fpr_recursive).

Rates for an m-bit filter storing n items with k hash bits per item:

* standard: f = E[(X/m)^k] with X classic-occupancy over n*k balls.
* classic:  f = E[C(X,k)] / C(m,k) with X committee-occupancy.

Efficiency is -(n/m) * log2 f, bounded by 1 for uniform hashing.

optimal_k compares candidates through certified brackets lo <= f <= hi:
the same alternating sums with every factor cut to the bits the comparison
needs, in integer arithmetic. Exact rates are computed only where two
brackets cannot decide, and for the winner, so every result is the one an
all-exact scan gives. The capacity searches walk the same brackets but ask
only whether some k meets the target rate, which needs no minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cached_property, partial
from itertools import repeat
from math import comb
from typing import Callable, Iterator, NamedTuple, Sequence

from .filters import FilterVariant
from .kernel import (
    _alternating_power_sum,
    log2_fraction,
    nabla_power,
    nabla_power_row,
    two_term_recursion,
)
from .occupancy import (
    CommitteeSpec,
    _empty_urn_sum,
    classic_mean_variance,
    intersection_moment,
)

__all__ = [
    "FprBounds",
    "FprReport",
    "EfficiencyPoint",
    "OptimalK",
    "UndefinedEfficiencyError",
    "InfeasibleError",
    "fpr_standard_exact",
    "fpr_classic_exact",
    "fpr_exact",
    "fpr_recursive",
    "fpr_bounds",
    "fpr_taylor",
    "fpr_report",
    "optimal_k",
    "optimal_k_estimate",
    "n_max_estimate",
    "m_min_estimate",
    "capacity_n_max",
    "size_m_min",
    "efficiency",
    "peak_efficiency",
    "max_efficiency",
    "max_efficiency_closed_form",
    "valley_crossing",
    "valley_residual",
    "intersection_filter_moments",
]

LN2 = math.log(2)


class UndefinedEfficiencyError(ValueError):
    """Efficiency needs a positive false-positive rate (n >= 1)."""


class InfeasibleError(ValueError):
    """No parameter choice can reach the requested false-positive rate."""


# --------------------------------------------------------------------------
# Exact false-positive rates
# --------------------------------------------------------------------------


def fpr_standard_exact(m: int, n: int, k: int) -> Fraction:
    """Exact rate for a standard filter:

        f = E[X^k] / m^k
          = sum_j (-1)^j C(m,j) nabla^j[x^k]_m (m-j)^(nk) / m^(nk+k)

    the k-th raw moment of the n*k-ball classic occupancy number over m^k,
    from occupancy's empty-urn sum as in classic_raw_moment: j bits left
    clear by the n*k insert positions and covered by the k probe positions.
    """
    if m < 1 or k < 1 or n < 0:
        raise ValueError("fpr_standard_exact requires m >= 1, k >= 1, n >= 0")
    num = _empty_urn_sum(m, [(1, n * k)], nabla_power_row(m, k, min(k, m)))
    return Fraction(num, m ** (n * k + k))


def fpr_classic_exact(m: int, n: int, k: int) -> Fraction:
    """Exact rate for a classic filter:

        f = sum_i (-1)^i C(k,i) [C(m-i,k)/C(m,k)]^n

    the k-th normalized backward difference of C(x,k)^n at m.
    """
    if not 1 <= k <= m:
        raise ValueError("fpr_classic_exact requires 1 <= k <= m")
    if n < 0:
        raise ValueError("fpr_classic_exact requires n >= 0")
    coeffs, bases, e, den = _classic_terms(m, n, k)
    return Fraction(_alternating_power_sum(coeffs, bases, e), den)


def _classic_terms(m: int, n: int, k: int) -> tuple[list[int], list[int], int, int]:
    """(coeffs, bases, e, den) with the classic rate
    sum_j (-1)^j coeffs[j] bases[j]^e / den: C(k, i) and C(m-i, k)^n over
    C(m, k)^n, the bases stepped by the exact ratio
    C(m-i-1, k) = C(m-i, k) (m-i-k) / (m-i) instead of k+1 comb calls.
    At n = 1, nabla^k C(x,k) at m collapses to C(m-k, 0) = 1: the one
    term 1 / C(m, k)."""
    if n == 1:
        return [1], [1], 1, comb(m, k)
    bases = [comb(m, k)]
    for i in range(k):
        bases.append(bases[-1] * (m - i - k) // (m - i))
    return list(map(comb, repeat(k), range(k + 1))), bases, n, bases[0] ** n


def fpr_exact(m: int, n: int, k: int, variant: FilterVariant) -> Fraction:
    if variant is FilterVariant.STANDARD:
        return fpr_standard_exact(m, n, k)
    return fpr_classic_exact(m, n, k)


# --------------------------------------------------------------------------
# Recursive (approximate) backend
# --------------------------------------------------------------------------


def fpr_recursive(m: int, n: int, k: int, variant: FilterVariant) -> float:
    """kernel.two_term_recursion for either variant, in 40-digit decimal.

    Approximate, and with no error estimate; the exact backend is the
    authority. Cancellation amplifies the rounding error by at least 1/f
    and, at large k, by much more, so 40 digits do not carry the small
    rates: at (m, n, k) = (1024, 5, 133) this returns 1.6e-16 for standard
    (exact 2.9e-42) and -6.2e-19 for classic (exact 1.1e-43), and at
    (256, 2, 90) it is 9-16% off. Nor is it a fast path there: at
    (1024, 5, 133) it takes about 28 ms for standard and 4 ms for classic,
    against 4.3 and 0.6 ms for the exact backend (CPython 3.11 on a shared
    2-CPU x86-64 VM); it wins only at large m*n, such as (4096, 100, 28).
    Making it carry the precision it reports, or say that it cannot, is
    open (ROADMAP item 3, the recursive backend).

    The classic weight (1 - k/s)^n does not depend on the level, so it is
    taken once per urn count s: k powers, not about k^2/2. Each standard
    weight (1 - 1/s)^(nk+i-1) is its own 40-digit power, since forming it
    from shared factors would change its last digits.
    """
    if m < 1 or k < 1 or n < 0:
        raise ValueError("fpr_recursive requires m >= 1, k >= 1, n >= 0")
    if variant is FilterVariant.CLASSIC and k > m:
        raise ValueError("classic variant requires k <= m")
    if n == 0:
        return 0.0
    standard = variant is FilterVariant.STANDARD
    # standard: psi(h, s) = E[(X/s)^h] over n*k balls, weight (1 - 1/s)^(nk+h-1);
    # classic: rho(r, s) of C(x,k)^n, weight (1 - k/s)^n; both 0 below s = low
    low = 1 if standard else k
    with localcontext() as ctx:
        ctx.prec = 40

        def power(s: int, e: int) -> Decimal:
            return (Decimal(s - low) / Decimal(s)) ** e

        if standard:

            def weight(i: int, s: int) -> Decimal:
                return power(s, n * k + i - 1)

        else:
            # (1 - k/s)^n does not depend on the level i: one power per urn
            # count s, and the recursion steps only at s = m-k+1..m
            per_s = {s: power(s, n) for s in range(max(m - k, low) + 1, m + 1)}

            def weight(i: int, s: int) -> Decimal:
                return per_s[s]

        return float(two_term_recursion(k, m, low, weight, Decimal(1)))


# --------------------------------------------------------------------------
# Bounds and approximations
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FprBounds:
    """E <= M <= f_standard <= U and L <= f <= U for both variants
    (guaranteed for 1 <= k <= (m-1)/2; returned unflagged outside).

    E is irrational and carried as a float; L and U are exact. M is
    M_base ** M_exp with M_base = 1 - ((m-1)/m)^(nk) and M_exp = k: the base
    has about nk log2 m bits, M itself k times as many (884,309 in its
    numerator at (1024, 5, 133)). The exact M is computed on first read of
    .M and cached; the CLI prints it from a bracket of the base instead
    (cli.power_sci) and never reads it.
    """

    E: float
    M_base: Fraction
    M_exp: int
    L: Fraction
    U: Fraction

    @cached_property
    def M(self) -> Fraction:
        return self.M_base**self.M_exp


def fpr_bounds(m: int, n: int, k: int) -> FprBounds:
    """The four bounds of FprBounds; M is carried as its base and exponent
    and formed only if .M is read."""
    if m < 1 or k < 1 or n < 0:
        raise ValueError("fpr_bounds requires m >= 1, k >= 1, n >= 0")
    if n == 0:
        zero = Fraction(0)
        return FprBounds(E=0.0, M_base=zero, M_exp=k, L=zero, U=zero)
    e_val = (-math.expm1(-k * n / m)) ** k
    l_val = Fraction(nabla_power(m, n * k, k), m ** (n * k))
    u_val = (1 - Fraction(max(m - k, 0), m) ** n) ** k if k <= m else Fraction(1)
    return FprBounds(
        E=e_val, M_base=1 - Fraction(m - 1, m) ** (k * n), M_exp=k, L=l_val, U=u_val
    )


def fpr_taylor(m: int, n: int, k: int) -> float:
    """Second-order Taylor approximation of the standard rate around the
    mean bit sum: phi(mu) + (sigma^2 / 2) phi''(mu) with phi(x) = (x/m)^k."""
    if m < 1 or k < 1 or n < 0:
        raise ValueError("fpr_taylor requires m >= 1, k >= 1, n >= 0")
    if n == 0:
        return 0.0
    mu, var = classic_mean_variance(m, n * k)
    muf, varf = float(mu), float(var)
    phi = (muf / m) ** k
    if k == 1:
        return phi
    # scaled by m before the power: muf ** (k - 2) overflows at k ~ 133
    phi2 = k * (k - 1) / m**2 * (muf / m) ** (k - 2)
    return phi + varf / 2 * phi2


@dataclass(frozen=True)
class FprReport:
    """Everything the analyze command prints for one configuration."""

    m: int
    n: int
    k: int
    variant: FilterVariant
    exact: Fraction
    bounds: FprBounds
    taylor: float
    recursive: float
    log2_exact: float
    efficiency: float


def fpr_report(m: int, n: int, k: int, variant: FilterVariant) -> FprReport:
    exact = fpr_exact(m, n, k, variant)
    log2e = log2_fraction(exact) if exact > 0 else float("-inf")
    eff = _efficiency(m, n, exact) if exact > 0 else 0.0
    return FprReport(
        m=m,
        n=n,
        k=k,
        variant=variant,
        exact=exact,
        bounds=fpr_bounds(m, n, k),
        taylor=fpr_taylor(m, n, k),
        recursive=fpr_recursive(m, n, k, variant),
        log2_exact=log2e,
        efficiency=eff,
    )


# --------------------------------------------------------------------------
# Optimal hash count
# --------------------------------------------------------------------------


class OptimalK(NamedTuple):
    k: float
    fpr: Fraction | float


def optimal_k_estimate(m: int, n: int) -> OptimalK:
    """The closed-form seed k ~ (m/n) ln 2 and its idealized rate 2^-k."""
    if n < 1:
        raise ValueError("optimal_k_estimate requires n >= 1")
    k_est = m / n * LN2
    return OptimalK(k_est, 0.5**k_est)


def _k_seed(m: int, n: int) -> int:
    """The closed-form k ~ (m/n) ln 2 rounded and clamped to 1..m."""
    return min(max(round(m / n * LN2), 1), m)


def optimal_k(m: int, n: int, variant: FilterVariant) -> OptimalK:
    """Hash count minimizing the false-positive rate at fixed (m, n).

    Scans k = 1..m with exact comparisons, ties toward smaller k, and
    returns the winner's exact rate. The closed-form seed is evaluated
    exactly first, to set the threshold T, the log2 of an upper bound on
    the best rate found so far; T never rises during the scan. A candidate
    whose proven lower bound B(k) = _fpr_lower_bound_log2 exceeds T + 0.5 is
    skipped; the 0.5-bit safety margin absorbs the float error of B and of
    T, so skipping cannot change the winner.

    Standard variant: the scan stops at the first skipped k past
    k0 = ln 2 / |ln q|. Proof that every later k is skipped too: with
    q = (1 - 1/m)^n and y = q^k,

        B(k) = k log2(1 - y) = -ln(y) ln(1 - y) / (|ln q| ln 2).

    ln(y) ln(1 - y) is positive on (0, 1) and its derivative is
    r(1 - y) - r(y) with r(t) = ln(t)/(1 - t); r increases on (0, 1)
    (r' has the sign of 1/t - 1 + ln t > 0), so the derivative is positive
    on (0, 1/2) and negative on (1/2, 1). y falls as k grows, so B falls
    while y > 1/2, has its one minimum at y = 1/2 (k = k0), and rises
    after. So for j > k > k0, B(j) > B(k) > T + 0.5 >= T' + 0.5 for any
    later threshold T'. Float rounding can misplace k0 by about 1e-16 k0,
    where B is flat to second order; that moves B by far less than the
    margin.

    Classic variant: no such proof is at hand for its bound, so it scans
    the full range (each skipped k costs one O(1) bound evaluation).

    Brackets: a k that is not skipped gets lo <= f(k) <= hi, not its exact
    value. Both rates are alternating sums sum_j (-1)^j a_j b_j^e / D of
    nonnegative integers with b_0 the largest base (standard: A(k, j) and
    (m-j)^(nk) over m^(nk+k), stepped through k by _standard_rate_steps;
    classic: C(k, i) and C(m-i, k)^n over C(m, k)^n). _rate_bracket cuts
    each factor to about q significant bits and bounds each term between
    the product of the floors and a bound on the product of the ceils;
    even terms give the lower end to lo and the upper end to hi, odd terms
    the reverse: integer arithmetic only. The bracket is at most
    2^(2-q) S / D wide, S = (sum_j a_j) b_0^e, and S / D <= 2^k in both
    variants: classic, since sum_i C(k, i) = 2^k and D = C(m, k)^n;
    standard, since the row recurrence of _dual_coefficient_rows gives
    sum_j A(k+1, j) = 2 sum_j (m-j) A(k, j) <= 2m sum_j A(k, j), so
    sum_j A(k, j) <= (2m)^k, while b_0 = m^(nk). q = k + ceil(-B(k)) + 43
    and B(k) <= log2 f(k) then make the bracket at most 2^-41 f(k) wide,
    and rounding it out to 64-bit dyadics keeps it under 2^-40 f(k). Where
    the cut would be under 512 bits per term, which saves less than the
    bracket costs, the bracket is the exact rate.

    The scan keeps the best k's bracket. A k with lo >= best hi cannot win
    (ties go to the smaller k); a k with hi < best lo wins; otherwise both
    exact rates decide, each computed at most once per call. T comes from
    best hi, an upper bound on the best rate, so the pruning proof and the
    early stop above hold as written. So the winner, and the exact rate
    returned for it, are those of the exact scan; q only decides how often
    a bracket is too wide to decide on its own.

    The walk over k, with the bound test, the early stop and the brackets,
    is _bracket_walk, which _rate_at_most (the capacity searches' probe)
    walks too; the comparisons above are optimal_k's own.
    """
    if m < 1 or n < 0:
        raise ValueError("optimal_k requires m >= 1 and n >= 0")
    if n == 0:
        return OptimalK(1, Fraction(0))
    seed = _k_seed(m, n)
    exact = {seed: fpr_exact(m, n, seed, variant)}
    threshold = log2_fraction(exact[seed])
    best_k = best_lo = best_hi = None
    for k, lo, hi in _bracket_walk(m, n, variant, exact, lambda: threshold):
        if best_k is not None:
            if lo >= best_hi:
                continue
            if hi >= best_lo:  # the brackets overlap: decide exactly
                for j in (k, best_k):
                    if j not in exact:
                        exact[j] = fpr_exact(m, n, j, variant)
                if exact[k] >= exact[best_k]:
                    best_lo = best_hi = exact[best_k]
                    continue
                lo = hi = exact[k]
        best_k, best_lo, best_hi = k, lo, hi
        threshold = min(threshold, log2_fraction(hi))
    if best_k not in exact:
        exact[best_k] = fpr_exact(m, n, best_k, variant)
    return OptimalK(best_k, exact[best_k])


def _bracket_walk(
    m: int,
    n: int,
    variant: FilterVariant,
    exact: dict[int, Fraction],
    limit: Callable[[], float],
) -> Iterator[tuple[int, Fraction, Fraction]]:
    """(k, lo, hi) with lo <= f(m, n, k) <= hi for k = 1..m in increasing
    order, less every k whose bound proves f(k) > 2^limit(): the candidate
    walk of optimal_k and _rate_at_most (n >= 1, and m >= 2 unless exact
    holds k = 1).

    A k in exact is yielded at its exact rate, unbounded. Any other k with
    B(k) = _fpr_lower_bound_log2 > limit() + 0.5 is skipped, and for the
    standard variant the walk ends at the first skipped k past k0 (both
    argued in optimal_k's docstring). limit() is read at the start and
    after each yield, so the caller may lower it between candidates; it
    must never rise. The rest get q = k + ceil(-B(k)) + _GUARD_BITS bits,
    and a bracket that cut nothing is the exact rate, recorded in exact.
    """
    # past k_rise = k0 the standard bound only rises; classic scans to m
    k_rise = math.inf
    if variant is FilterVariant.STANDARD:
        bracket = _standard_rate_steps(m, n)
        if m > 1:
            k_rise = LN2 / (n * -math.log1p(-1 / m))
    else:
        bracket = partial(_classic_rate_bracket, m, n)
    cut = limit() + 0.5
    for k in range(1, m + 1):
        if k in exact:
            lo = hi = exact[k]
        else:
            bound = _fpr_lower_bound_log2(m, n, k, variant)
            if bound > cut:
                if k > k_rise:
                    return
                continue
            lo, hi = bracket(k, k + math.ceil(-bound) + _GUARD_BITS)
            if lo is hi:  # nothing was cut
                exact[k] = lo
        yield k, lo, hi
        cut = limit() + 0.5


def _rate_at_most(m: int, n: int, variant: FilterVariant, target: Fraction) -> bool:
    """min_k f(m, n, k) <= target, decided without the minimum (n >= 1).

    The minimum meets target exactly when some k does, so this walks
    optimal_k's candidates (_bracket_walk) against the fixed threshold
    log2(target): a skipped k has f(k) > target by the same 0.5-bit
    margin, and the standard walk's early stop holds for a fixed threshold
    as for a falling one. It answers True at the first bracket with
    hi <= target, passes over a bracket with lo > target, and computes an
    exact rate only for a bracket that straddles target. m = 1 is settled
    by its one exact rate, as optimal_k settles it through its seed.
    """
    if m == 1:
        return fpr_exact(1, n, 1, variant) <= target
    limit = log2_fraction(target)
    for k, lo, hi in _bracket_walk(m, n, variant, {}, lambda: limit):
        if hi <= target:
            return True
        if lo <= target and fpr_exact(m, n, k, variant) <= target:
            return True
    return False


# optimal_k's brackets: q = k + ceil(-B(k)) + _GUARD_BITS significant bits
# per factor, ends rounded out to _WORD significant bits, and the exact rate
# where the cut would be under _MIN_CUT bits per term
_GUARD_BITS = 43
_WORD = 64
_MIN_CUT = 512
_Bracket = tuple[Fraction, Fraction]


def _rate_bracket(
    coeffs: list[int], bases: list[int], e: int, den: int, q: int
) -> _Bracket:
    """(lo, hi) with lo <= F / den <= hi, F = sum_j (-1)^j a_j b_j^e over
    coeffs a_j >= 0 and bases b_0 >= b_j >= 0, and hi - lo at most
    2^(2-q) S / den for S = (sum_j a_j) b_0^e (q >= 1).

    Each a_j is cut to a'_j = a_j >> sa, each b_j to b'_j = b_j >> sb, and
    the cut sum mid = sum_j (-1)^j a'_j b'_j^e is taken exactly. Then
    a_j b_j^e / 2^(sa + e sb) lies in [a'_j b'_j^e, a'_j b'_j^e + a'_j G + U]
    with G = (b'_0 + 1)^e - b'_0^e, which bounds (b'_j + 1)^e - b'_j^e, and
    U = b'_0^e + G, which bounds what a + 1 on a'_j adds (G = 0 where
    sb = 0, U = 0 where sa = 0). Even terms take the lower end into lo and
    the upper into hi, odd terms the reverse. sb keeps q + bit_length(e)
    bits of b_0, so e / b'_0 <= 2^-q and G <= (e^(e/b'_0) - 1) b'_0^e
    <= 2^(1-q) b'_0^e; sa keeps q + bit_length(len) bits of sum_j a_j, so
    len U adds at most about 2^-q S. The bounds are rounded out to dyadic
    rationals of about _WORD significant bits.

    Where the shifts would cut fewer than _MIN_CUT bits from each term, F
    is summed exactly and lo == hi == F / den: so small a cut saves less
    than the bracket costs (CPython 3.11 on a 2-CPU x86-64 VM, standard
    rate at the seed k: 1.3-1.8 times the exact sum's time at m <= 100,
    n <= 3, with cuts of 115-393 bits; 0.84 times at (128, 2), 691 bits).
    """
    sa = max(sum(coeffs).bit_length() - 1 - q - len(coeffs).bit_length(), 0)
    sb = max(bases[0].bit_length() - 1 - q - e.bit_length(), 0)
    scale = sa + e * sb
    if scale < _MIN_CUT:
        f = Fraction(_alternating_power_sum(coeffs, bases, e), den)
        return f, f
    cut = [a >> sa for a in coeffs]
    mid = _alternating_power_sum(cut, [b >> sb for b in bases], e)
    lead = (bases[0] >> sb) ** e
    gap = ((bases[0] >> sb) + 1) ** e - lead if sb else 0
    pad = lead + gap if sa else 0
    low = mid - gap * sum(cut[1::2]) - pad * (len(cut) // 2)
    high = mid + gap * sum(cut[::2]) + pad * ((len(cut) + 1) // 2)
    # shift so that high / den keeps about _WORD bits (high > 0 for a rate)
    shift = max(den.bit_length() - high.bit_length() + _WORD, scale)
    one = 1 << (shift - scale)
    lo, hi = (low << shift) // den, -((-high << shift) // den)
    return Fraction(lo, one), Fraction(hi, one)


def _classic_rate_bracket(m: int, n: int, k: int, q: int) -> _Bracket:
    """optimal_k's bracket of fpr_classic_exact(m, n, k) for q bits."""
    return _rate_bracket(*_classic_terms(m, n, k), q)


def _standard_rate_steps(m: int, n: int) -> Callable[[int, int], _Bracket]:
    """bracket(k, q), optimal_k's bracket of fpr_standard_exact(m, n, k)
    with q significant bits per factor, for k increasing from call to call,
    carrying the dual form's state from one k to the next.

    The coefficients A(k, .) come from _dual_coefficient_rows, stepped for
    every k. The powers (m-j)^(nk) step by one multiply by (m-j)^n when the
    previous call was at k-1, and are taken afresh otherwise. Both stay
    exact; only their products are truncated.
    """
    rows = _dual_coefficient_rows(m)
    coeffs, at = next(rows), 0
    powers, powers_at = [], 0
    steps: list[int] = []

    def bracket(k: int, q: int) -> _Bracket:
        nonlocal coeffs, at, powers, powers_at
        while at < k:
            coeffs, at = next(rows), at + 1
        size = len(coeffs)
        if powers and powers_at == k - 1:
            steps.extend((m - j) ** n for j in range(len(steps), size))
            powers = [p * s for p, s in zip(powers, steps)]
            powers += [(m - j) ** (n * k) for j in range(len(powers), size)]
        else:
            powers = [(m - j) ** (n * k) for j in range(size)]
        powers_at = k
        return _rate_bracket(coeffs, powers, 1, m ** (n * k + k), q)

    return bracket


def _dual_coefficient_rows(m: int) -> Iterator[list[int]]:
    """A(k, .) for k = 0, 1, 2, ...: A(k, j) = C(m,j) nabla^j[x^k]_m for
    j <= min(k, m), stepped exactly in O(k) small-integer work per k:

        A(0, .) = [1],  A(k+1, j) = (m-j) A(k, j) + (m-j+1) A(k, j-1).

    k+1 probe positions cover j given bits when the first k cover them and
    the last lands elsewhere, or the first k cover all but the one the last
    lands on; and j C(m,j) = (m-j+1) C(m,j-1). The row stops at j = m,
    where the factor m-j+1 leaves nothing for j = m+1.
    """
    row = [1]
    while True:
        yield row
        lower = row + [0] if len(row) <= m else row
        row = [
            (m - j) * a + (m - j + 1) * b
            for j, (a, b) in enumerate(zip(lower, [0] + row))
        ]


def _fpr_lower_bound_log2(m: int, n: int, k: int, variant: FilterVariant) -> float:
    """log2 of a proven lower bound on the exact rate (Jensen both times).

    standard: f_S = E[(X/m)^k] >= (E[X]/m)^k, E[X] = m (1 - (1 - 1/m)^(nk)).
    classic: X >= k always and x -> C(x, k) is convex there, so
    f_C >= C(mu, k) / C(m, k) with mu = m (1 - (1 - k/m)^n); in log form
    ln C(mu, k) = lgamma(mu + 1) - lgamma(mu - k + 1) for real mu > k - 1,
    so four lgamma calls replace the k-term product. lgamma's rounding is a
    few ulps of lgamma(m + 1) (about 1e-10 nats at m = 10^4, 1e-8 at
    m = 10^6), far inside optimal_k's 0.5-bit margin.
    """
    if variant is FilterVariant.STANDARD:
        t = n * k * math.log1p(-1.0 / m)
        return k * math.log2(-math.expm1(t))
    if k >= m:
        return 0.0 if k == m else math.inf
    mu = m * -math.expm1(n * math.log1p(-k / m))
    if mu <= k - 1 + 1e-12:
        mu = float(k)  # n = 1 gives mu = k exactly; guard float dust
    lg = math.lgamma
    return (lg(mu + 1) - lg(mu - k + 1) - lg(m + 1) + lg(m - k + 1)) / LN2


# --------------------------------------------------------------------------
# Capacity planning
# --------------------------------------------------------------------------


def n_max_estimate(m: int, p: float) -> float:
    """Closed-form seed: n_max ~ -m ln2 / log2 p."""
    _require_rate(p)
    return -m * LN2 / math.log2(p)


def m_min_estimate(n: int, p: float) -> float:
    """Closed-form seed: m_min ~ -n log2 p / ln2."""
    _require_rate(p)
    return -n * math.log2(p) / LN2


def _require_rate(p: float) -> None:
    if not 0 < p < 1:
        raise ValueError("target rate p must satisfy 0 < p < 1")


def capacity_n_max(m: int, p: float, variant: FilterVariant) -> int:
    """Largest n whose optimally-hashed exact rate still meets p.

    The optimal rate increases strictly with n, so every n is probed by
    _rate_at_most in one monotone search from the closed-form seed, n = 1
    first: InfeasibleError if even that misses p.
    """
    _require_rate(p)
    if m < 1:
        raise ValueError("capacity_n_max requires m >= 1")
    target = Fraction(p)

    def ok(n: int) -> bool:
        return _rate_at_most(m, n, variant, target)

    if not ok(1):
        raise InfeasibleError(f"rate {p} unreachable at m={m} even for n=1")
    return _last_true(ok, round(n_max_estimate(m, p)))


def size_m_min(n: int, p: float, variant: FilterVariant) -> int:
    """Smallest m whose optimally-hashed exact rate meets p at fixed n.

    The optimal rate falls with m and is 1 > p at m = 1, so the answer is
    one past the largest m that misses p, found by the same monotone search
    as capacity_n_max's from the closed-form seed.
    """
    _require_rate(p)
    if n < 1:
        raise ValueError("size_m_min requires n >= 1")
    target = Fraction(p)

    def misses(m: int) -> bool:
        return not _rate_at_most(m, n, variant, target)

    return 1 + _last_true(misses, max(n, round(m_min_estimate(n, p))))


def _last_true(holds: Callable[[int], bool], start: int) -> int:
    """Largest x >= 1 with holds(x), for holds monotone (true up to the
    answer, false past it) and known true at x = 1, which is not probed.

    Doubles x from max(start, 2) while holds(x), then bisects between the
    last x that held (or 1) and the first that failed; no x is probed twice.
    """
    lo, hi = 1, max(start, 2)
    while holds(hi):
        lo, hi = hi, hi * 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if holds(mid) else (lo, mid)
    return lo


# --------------------------------------------------------------------------
# Efficiency
# --------------------------------------------------------------------------


def efficiency(m: int, n: int, k: int, variant: FilterVariant) -> float:
    """epsilon = -(n/m) log2 f, computed from the exact rate.

    log2 goes through bit lengths, so rates way below double-precision
    underflow still give full-precision efficiencies.
    """
    return _efficiency(m, n, fpr_exact(m, n, k, variant))


def _efficiency(m: int, n: int, f: Fraction) -> float:
    if f == 0:
        raise UndefinedEfficiencyError("efficiency undefined for zero rate (n = 0)")
    if f == 1:
        return 0.0  # not -(n/m) * 0.0, which is -0.0
    return -(n / m) * log2_fraction(f)


@dataclass(frozen=True)
class EfficiencyPoint:
    """A (n, k) location and its efficiency; conjectured marks values that
    rest on an open conjecture rather than a proof."""

    n: int
    k: int
    epsilon: float
    conjectured: bool = False


def peak_efficiency(m: int, k: int, variant: FilterVariant) -> EfficiencyPoint:
    """Best efficiency over the item count n at fixed (m, k).

    Bounded exhaustive scan: the window [1, ~4 m ln2 / k] comfortably
    contains the peak (empirically near (m/k - 1) ln2) and the scan keeps
    extending while the maximum sits on its edge, so no unimodality
    assumption is needed.
    """
    if not 1 <= k <= m:
        raise ValueError("peak_efficiency requires 1 <= k <= m")
    limit = max(8, math.ceil(4 * m * LN2 / k))
    best_n, best_eps = 1, efficiency(m, 1, k, variant)
    n = 2
    while n <= limit:
        eps = efficiency(m, n, k, variant)
        if eps > best_eps:
            best_n, best_eps = n, eps
            if n == limit:
                limit *= 2
        n += 1
    return EfficiencyPoint(n=best_n, k=k, epsilon=best_eps)


def max_efficiency(m: int, variant: FilterVariant) -> EfficiencyPoint:
    """Best efficiency over both n and k at fixed m.

    standard: proven at k = 1 with n ~ 1/log2(m/(m-1)); the exact
    efficiency at the best integer n is returned.
    classic: conjectured at n = 1, k = floor(m/2); efficiency is
    (1/m) log2 C(m, k) exactly, flagged conjectured.
    """
    if m < 2:
        raise ValueError("max_efficiency requires m >= 2")
    if variant is FilterVariant.STANDARD:
        n_real = 1 / math.log2(m / (m - 1))
        candidates = {max(1, math.floor(n_real)), math.ceil(n_real)}
        best = max(
            ((efficiency(m, n, 1, variant), n) for n in candidates),
            key=lambda t: t[0],
        )
        return EfficiencyPoint(n=best[1], k=1, epsilon=best[0])
    k = m // 2
    return EfficiencyPoint(
        n=1, k=k, epsilon=efficiency(m, 1, k, variant), conjectured=True
    )


def max_efficiency_closed_form(m: int, variant: FilterVariant) -> float:
    """The continuous-n closed form the discrete optimum converges to."""
    if variant is FilterVariant.STANDARD:
        return 1 / (m * math.log2(m / (m - 1)))
    return log2_fraction(Fraction(comb(m, m // 2))) / m


# --------------------------------------------------------------------------
# Valley crossings (equal-efficiency points between k and k+1)
# --------------------------------------------------------------------------


def valley_crossing(k: int) -> float:
    """Positive x with (1-e^(-kx))^k = (1-e^(-(k+1)x))^(k+1).

    x = ln z for z the positive root of z^(k+1) - z - 1, found by iterating
    z <- (1+z)^(1/(k+1)); k = 1 gives the golden ratio.
    """
    if k < 1:
        raise ValueError("valley_crossing requires k >= 1")
    z = 1.5
    for _ in range(10_000):
        z_next = (1 + z) ** (1 / (k + 1))
        if abs(z_next - z) < 1e-12:
            z = z_next
            break
        z = z_next
    return math.log(z)


def valley_residual(k: int, x: float) -> float:
    """Defect of the defining equation at x (0 at a true crossing)."""
    return abs(
        (-math.expm1(-k * x)) ** k - (-math.expm1(-(k + 1) * x)) ** (k + 1)
    )


# --------------------------------------------------------------------------
# Intersections of standard filters
# --------------------------------------------------------------------------


def intersection_filter_moments(
    m: int, k: int, counts: Sequence[int]
) -> tuple[Fraction, Fraction]:
    """(mean, variance) of the bit sum of an AND of standard filters.

    counts holds the item count of each operand filter. Filter i is a
    department of n_i * k single-bit batches, so the mean and variance
    come from the exact first and second intersection binomial moments; an
    empty operand empties the AND. The published variance display
    adds the squared-mean term that should be subtracted: at m=2, two
    single-item k=1 filters it gives 3/4 where enumeration gives 1/4.
    """
    if m < 1 or k < 1:
        raise ValueError("intersection_filter_moments requires m >= 1, k >= 1")
    if not counts:
        raise ValueError("at least one filter required")
    if any(n_i < 0 for n_i in counts):
        raise ValueError("item counts must be >= 0")
    if 0 in counts:
        return Fraction(0), Fraction(0)
    spec = CommitteeSpec(m, [(n_i * k, 1) for n_i in counts])
    mean = intersection_moment(spec, 1)
    var = mean + 2 * intersection_moment(spec, 2) - mean * mean
    return mean, var
