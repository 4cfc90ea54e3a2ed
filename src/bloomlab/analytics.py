"""False-positive rates, bounds, optimizers, and efficiency analysis.

Two evaluation backends. The exact backend works in integer/rational
arithmetic and is authoritative: the alternating sums underneath these
formulas are catastrophically cancellative in floating point once rates
drop below ~1e-15, and interesting configurations reach 1e-43. The
recursive backend is the approximate fast path.

Rates for an m-bit filter storing n items with k hash bits per item:

* standard: f = E[(X/m)^k] with X classic-occupancy over n*k balls.
* classic:  f = E[C(X,k)] / C(m,k) with X committee-occupancy.

Efficiency is -(n/m) * log2 f, bounded by 1 for uniform hashing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb
from typing import NamedTuple, Sequence

from .filters import FilterVariant
from .kernel import log2_fraction, nabla_power, two_term_recursion
from .occupancy import classic_mean_variance, classic_raw_moment

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

    the k-th raw moment of the n*k-ball classic occupancy number over m^k.
    """
    if m < 1 or k < 1 or n < 0:
        raise ValueError("fpr_standard_exact requires m >= 1, k >= 1, n >= 0")
    return classic_raw_moment(m, n * k, k) / m**k


def fpr_classic_exact(m: int, n: int, k: int) -> Fraction:
    """Exact rate for a classic filter:

        f = sum_i (-1)^i C(k,i) [C(m-i,k)/C(m,k)]^n

    the k-th normalized backward difference of C(x,k)^n at m.
    """
    if not 1 <= k <= m:
        raise ValueError("fpr_classic_exact requires 1 <= k <= m")
    if n < 0:
        raise ValueError("fpr_classic_exact requires n >= 0")
    if n == 1:
        # nabla^k C(x,k) at m collapses to C(m-k, 0) = 1
        return Fraction(1, comb(m, k))
    num = 0
    sign = 1
    for i in range(k + 1):
        c = comb(m - i, k)
        num += sign * comb(k, i) * (c**n if c else 0 if n else 1)
        sign = -sign
    return Fraction(num, comb(m, k) ** n)


def fpr_exact(m: int, n: int, k: int, variant: FilterVariant) -> Fraction:
    if variant is FilterVariant.STANDARD:
        return fpr_standard_exact(m, n, k)
    return fpr_classic_exact(m, n, k)


# --------------------------------------------------------------------------
# Recursive (approximate) backend
# --------------------------------------------------------------------------


def fpr_recursive(m: int, n: int, k: int, variant: FilterVariant) -> float:
    """kernel.two_term_recursion for either variant, in fixed-precision decimal.

    Cancellation amplifies relative error by roughly 1/f, so binary doubles
    cannot give 6 significant digits at f ~ 1e-12; 40 decimal digits leave
    a wide margin. Approximate by contract; the exact backend is the
    authority.
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

        def weight(i: int, s: int) -> Decimal:
            return (Decimal(s - low) / Decimal(s)) ** (n * k + i - 1 if standard else n)

        return float(two_term_recursion(k, m, low, weight, Decimal(1)))


# --------------------------------------------------------------------------
# Bounds and approximations
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FprBounds:
    """E <= M <= f_standard <= U and L <= f <= U for both variants
    (guaranteed for 1 <= k <= (m-1)/2; returned unflagged outside).

    E is irrational and carried as a float; M, L, U are exact.
    """

    E: float
    M: Fraction
    L: Fraction
    U: Fraction


def fpr_bounds(m: int, n: int, k: int) -> FprBounds:
    if m < 1 or k < 1 or n < 0:
        raise ValueError("fpr_bounds requires m >= 1, k >= 1, n >= 0")
    if n == 0:
        return FprBounds(E=0.0, M=Fraction(0), L=Fraction(0), U=Fraction(0))
    e_val = (-math.expm1(-k * n / m)) ** k
    m_val = (1 - Fraction(m - 1, m) ** (k * n)) ** k
    l_val = Fraction(nabla_power(m, n * k, k), m ** (n * k))
    u_val = (1 - Fraction(max(m - k, 0), m) ** n) ** k if k <= m else Fraction(1)
    return FprBounds(E=e_val, M=m_val, L=l_val, U=u_val)


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

    Scans k = 1..m with exact comparisons, ties toward smaller k. The
    closed-form seed is evaluated first, to set the threshold T, the log2
    of the best exact rate found so far; T never rises during the scan.
    A candidate whose proven lower bound B(k) = _fpr_lower_bound_log2
    exceeds T + 0.5 is skipped; the 0.5-bit safety margin absorbs the float
    error of B and of T, so skipping cannot change the winner.

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
    """
    if m < 1 or n < 0:
        raise ValueError("optimal_k requires m >= 1 and n >= 0")
    if n == 0:
        return OptimalK(1, Fraction(0))
    seed = _k_seed(m, n)
    seed_f = fpr_exact(m, n, seed, variant)
    threshold = log2_fraction(seed_f)
    # past k_rise = k0 the standard bound only rises; classic scans to m
    k_rise = math.inf
    if variant is FilterVariant.STANDARD and m > 1:
        k_rise = LN2 / (n * -math.log1p(-1 / m))
    best_k, best_f = None, None
    for k in range(1, m + 1):
        if k == seed:
            f = seed_f
        elif _fpr_lower_bound_log2(m, n, k, variant) > threshold + 0.5:
            if k > k_rise:
                break
            continue
        else:
            f = fpr_exact(m, n, k, variant)
        if best_f is None or f < best_f:
            best_k, best_f = k, f
            threshold = min(threshold, log2_fraction(f))
    return OptimalK(best_k, best_f)


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

    The optimal rate increases strictly with n, so a bracketed binary
    search around the closed-form seed suffices.

    Feasibility of n = 1 is settled by a bound before any exact scan (the
    scan at n = 1 is the costliest, since its bounds prune least): for
    every 1 <= k <= m, f(m, 1, k) <= (k/m)^k in both variants.
    standard: one item sets X <= k bits, so E[(X/m)^k] <= (k/m)^k.
    classic: f = 1/C(m, k), and C(m, k) = prod_{i<k} (m-i)/(k-i) >= (m/k)^k
    since (m-i)/(k-i) >= m/k. So (k1/m)^k1 <= p, checked exactly at
    k1 = round(m/e) (where (k/m)^k is least), proves n = 1 feasible; when it
    fails the exact probe decides, and raises InfeasibleError.
    """
    _require_rate(p)
    target = Fraction(p)

    def ok(n: int) -> bool:
        return optimal_k(m, n, variant).fpr <= target

    k1 = max(1, round(m / math.e))
    if Fraction(k1, m) ** k1 > target and not ok(1):
        raise InfeasibleError(f"rate {p} unreachable at m={m} even for n=1")
    lo = 1
    hi = max(2, round(n_max_estimate(m, p)))
    while ok(hi):
        lo = hi
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


def size_m_min(n: int, p: float, variant: FilterVariant) -> int:
    """Smallest m whose optimally-hashed exact rate meets p at fixed n."""
    _require_rate(p)
    if n < 1:
        raise ValueError("size_m_min requires n >= 1")
    target = Fraction(p)

    def ok(m: int) -> bool:
        return optimal_k(m, n, variant).fpr <= target

    hi = max(n, 1, round(m_min_estimate(n, p)))
    while not ok(hi):
        hi *= 2
    lo = hi // 2
    while lo > 0 and ok(lo):
        hi = lo
        lo //= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


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

    counts holds the item count of each operand filter. The mean is the
    published product formula; the variance comes from the exact first and
    second intersection binomial moments. The published variance display
    adds the squared-mean term that should be subtracted: at m=2, two
    single-item k=1 filters it gives 3/4 where enumeration gives 1/4.
    """
    if m < 1 or k < 1:
        raise ValueError("intersection_filter_moments requires m >= 1, k >= 1")
    if not counts:
        raise ValueError("at least one filter required")
    if any(n_i < 0 for n_i in counts):
        raise ValueError("item counts must be >= 0")
    total = sum(counts) * k
    mean_num = 1
    for n_i in counts:
        mean_num *= m ** (n_i * k) - (m - 1) ** (n_i * k)
    mean = Fraction(mean_num, m ** (total - 1)) if total else Fraction(0)
    b2 = Fraction(comb(m, 2))
    for n_i in counts:
        b2 *= Fraction(nabla_power(m, n_i * k, 2), m ** (n_i * k))
    var = mean + 2 * b2 - mean * mean
    return mean, var
