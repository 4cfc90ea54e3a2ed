"""False-positive rates, bounds, optimizers, and efficiency analysis.

Every rate is formed in integer/rational arithmetic: the alternating sums
underneath these formulas are catastrophically cancellative in floating
point once rates drop below ~1e-15, and interesting configurations reach
1e-43. Two algorithms share that arithmetic. The fpr_*_exact functions sum
each rate's terms into an exact Fraction, reduced against the small base
whose power its denominator is (m, or C(m, k); kernel._lowest_terms) rather
than by Fraction's general gcd; fpr_recursive runs the paper's
two-term recursion as an integer table and divides once, so its float is
the exact rate correctly rounded, a cross-check by another route.

Rates for an m-bit filter storing n items with k hash bits per item:

* standard: f = E[(X/m)^k] with X classic-occupancy over n*k balls.
* classic:  f = E[C(X,k)] / C(m,k) with X committee-occupancy.

Efficiency is -(n/m) * log2 f, bounded by 1 for uniform hashing.

optimal_k, the capacity searches and the CLI's optimize and sweep read
each rate as a certified value (kernel._Certified) from one _rate_source,
and form the exact rate only where its bracket cannot decide, so every
result is the one an all-exact scan gives.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain, repeat
from math import comb
from typing import Callable, Iterator, NamedTuple, Sequence

from .filters import FilterVariant
from .kernel import (
    _alternating_power_sum,
    _Certified,
    _lowest_terms,
    log2_fraction,
    nabla_power,
    nabla_power_row,
)
from .occupancy import CommitteeSpec, classic_mean_variance, intersection_moment

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

    the k-th raw moment of the n*k-ball classic occupancy number over m^k:
    j bits left clear by the n*k insert positions and covered by the k
    probe positions. It sums the terms of _standard_rate_steps, which
    optimal_k brackets.
    """
    if m < 1 or k < 1 or n < 0:
        raise ValueError("fpr_standard_exact requires m >= 1, k >= 1, n >= 0")
    return _rate_value(*_standard_rate_steps(m, n)(k))


def fpr_classic_exact(m: int, n: int, k: int) -> Fraction:
    """Exact rate for a classic filter:

        f = sum_i (-1)^i C(k,i) [C(m-i,k)/C(m,k)]^n

    the k-th normalized backward difference of C(x,k)^n at m.
    """
    if not 1 <= k <= m:
        raise ValueError("fpr_classic_exact requires 1 <= k <= m")
    if n < 0:
        raise ValueError("fpr_classic_exact requires n >= 0")
    return _rate_value(*_classic_terms(m, n, k))


def _classic_terms(m: int, n: int, k: int) -> _Terms:
    """The classic rate's terms C(k, i), C(m-i, k), n, C(m, k)^n and its
    base C(m, k), which fpr_classic_exact sums and optimal_k brackets; the
    bases stepped by C(m-i-1, k) = C(m-i, k) (m-i-k) / (m-i) instead of k+1
    comb calls.
    At n = 1, nabla^k C(x,k) at m collapses to C(m-k, 0) = 1: the one
    term 1 / C(m, k)."""
    if n == 1:
        return [1], [1], 1, comb(m, k), comb(m, k)
    bases = [comb(m, k)]
    for i in range(k):
        bases.append(bases[-1] * (m - i - k) // (m - i))
    return list(map(comb, repeat(k), range(k + 1))), bases, n, bases[0] ** n, bases[0]


def fpr_exact(m: int, n: int, k: int, variant: FilterVariant) -> Fraction:
    if variant is FilterVariant.STANDARD:
        return fpr_standard_exact(m, n, k)
    return fpr_classic_exact(m, n, k)


# --------------------------------------------------------------------------
# The paper's two-term recursion
# --------------------------------------------------------------------------


def fpr_recursive(m: int, n: int, k: int, variant: FilterVariant) -> float:
    """The paper's two-term recursion for either variant, run in integers:
    the result is the exact rate f correctly rounded, float(f).

    The recursion is g(i, t) = g(i-1, t) - w(i, t) g(i-1, t-1), f = g(k, m),
    with g(0, t) = 1 for t >= low and 0 below, q_t = 1 - low/t and either
    w(i, t) = q_t^(nk+i-1), low = 1 (standard: g(i, t) = E[(X/t)^i] over
    nk balls) or w(i, t) = q_t^n, low = k (classic: g = rho).

    Scale by D(i, t) = t^(nk+i) (standard) or C(t, k)^n (classic). The
    weight cancels against the scale, w(i, t) D(i, t) / D(i-1, t-1) =
    D(i, t) / D(i-1, t) = s_t with s_t = t (standard) or 1 (classic), so
    G = D g is the integer table

        G(i, t) = s_t (G(i-1, t) - G(i-1, t-1)),  G(0, t) = D(0, t) (t >= low)

    (classic: G(k, m) = nabla^k[C(x, k)^n]_m), and f = G(k, m) / D(k, m)
    is one correctly rounded integer division. Only the urn counts
    t = m - j above low, j < min(k, m - low), take a step; G(i, low) stays
    D(0, low) = 1 and the zeros below low are never stored.

    Below the double range: X <= min(nk, m), so both rates are at most
    (min(nk, m)/m)^k (standard E[(X/m)^k]; classic E[C(X, k)]/C(m, k), and
    C(x, k)/C(m, k) <= (x/m)^k for x <= m). Where that is under 2^-1076,
    f rounds to 0.0 and the recursion does not run.

    Cost: about k^2/2 differences of integers of up to (nk + k) log2 m bits
    (standard, each also multiplied by t) or n log2 C(m, k) bits (classic),
    and one division. Single calls (CPython 3.11, shared 2-CPU x86-64 VM)
    at (1024, 5, 133), (512, 16, 300) and (2048, 2, 700): standard 6, 180
    and 330 ms, where the exact rate takes 4, 83 and 196 ms; classic 2, 12
    and 90 ms against 0.5, 2 and 9 ms. It is a cross-check, faster than
    the exact rate only at large nk with small k: 1.16 s against 1.23 s at
    (65536, 1000, 45) standard, 0.42 s against 0.51 s at (100000, 10000, 7).
    """
    if m < 1 or k < 1 or n < 0:
        raise ValueError("fpr_recursive requires m >= 1, k >= 1, n >= 0")
    if variant is FilterVariant.CLASSIC and k > m:
        raise ValueError("classic variant requires k <= m")
    if n == 0:
        return 0.0
    if k * math.log2(min(n * k, m) / m) < _ZERO_LOG2:
        return 0.0
    standard = variant is FilterVariant.STANDARD
    live = min(k, m - 1) if standard else min(k, m - k)
    # level[j] holds G(i, m - j)
    urns = range(m, m - live - 1, -1)
    if standard:
        level = [t ** (n * k) for t in urns]
        scale = m ** (n * k + k)
    else:
        level = [comb(t, k) ** n for t in urns]
        scale = comb(m, k) ** n
    for i in range(1, k + 1):
        steps = min(k + 1 - i, live)
        # entries from steps on keep G(i-1, .): the one at low is constant,
        # the rest are no longer read
        if standard:
            level[:steps] = [
                t * (a - b) for t, a, b in zip(urns, level, level[1 : steps + 1])
            ]
        else:
            level[:steps] = [a - b for a, b in zip(level, level[1 : steps + 1])]
    return level[0] / scale


# a bound a bit under half the least subnormal, 2^-1075, below which a
# rate rounds to 0.0
_ZERO_LOG2 = -1076


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
    throws = m ** (n * k)
    l_val = _lowest_terms(nabla_power(m, n * k, k), throws, m)
    u_val = (1 - Fraction(max(m - k, 0), m) ** n) ** k
    m_base = _lowest_terms(throws - (m - 1) ** (n * k), throws, m)
    return FprBounds(E=e_val, M_base=m_base, M_exp=k, L=l_val, U=u_val)


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
    """Optimal hash count k, its exact rate fpr, and the last k <= m at fpr."""

    k: int
    fpr: Fraction
    k_max: int


def optimal_k_estimate(m: int, n: int) -> float:
    """The closed-form k ~ (m/n) ln 2."""
    if n < 1:
        raise ValueError("optimal_k_estimate requires n >= 1")
    return m / n * LN2


def _k_seed(m: int, n: int) -> int:
    """optimal_k_estimate rounded and clamped to 1..m."""
    return min(max(round(optimal_k_estimate(m, n)), 1), m)


def optimal_k(m: int, n: int, variant: FilterVariant) -> OptimalK:
    """Hash count minimizing the false-positive rate at fixed (m, n).

    Scans k = 1..m with exact comparisons, ties toward smaller k, and
    returns the winner's exact rate and the last k that ties it. The
    closed-form seed is rated first (_rate_source), to set the threshold T,
    the float log2 of an upper bound on the best rate so far; T never
    rises. A candidate whose proven lower bound B(k) =
    _fpr_lower_bound_log2 exceeds T + delta is skipped, delta =
    (|T| + c_m) 2^-40 bits with c_m = m log2(m+1) + m + 1 (_prune_cut).

    Margin: skipping cannot change the winner. Write u = 2^-53 and B*, T*
    for the exact values that the floats B, T approximate; libm's log1p,
    expm1 and log2 are taken within 1 ulp, lgamma within 4.
    - T* is log2 of a rational (a best rate's hi, or the probe's target),
      and log2_fraction is within u|T*| + 4u of it (64-bit quotients, one
      log2 and one sum).
    - Standard: the float t = nk log1p(-1/m) is within 6u relative (log1p's
      condition number at -1/m is under 1.45); y = -expm1(t) is then within
      8u relative, as (1 - y)|t| = -(1 - y) ln(1 - y) <= y; so ln y is
      within 8u absolute and B = k log2 y within 12uk + 4u|B|.
    - Classic: mu is within 6um of its formula, and mu moves
      lgamma(mu+1) - lgamma(mu-k+1) by at most ln(m+1) + 1 per unit, as
      mu - k + 1 >= 1; each lgamma is within 4 ulps of a value at most
      lgamma(m+1) <= (m+1) ln(m+1). So B is within 48u c_m + 2u|B|.
    B <= 0 (up to its rounding), so B > T + delta gives |B| <= |T|, and
    with the rounding of T + delta itself, B* - T* is within
    64u (|T| + c_m) = delta / 2^7 of B - T. So B* > T*:
    f(k) >= 2^B* > 2^T*, at least the best rate so far, and k cannot win
    or tie. _rate_at_most walks the same candidates against the fixed
    T = log2 p, and the same argument gives f(k) > p for every skipped k.
    (tests/test_analytics.py finds B within 2^-11 delta of a 60-digit
    evaluation of its formula up to m = 10^6.)

    Stop: the walk ends at the first skipped k >= k_rise whose rising bound
    R(k) also exceeds T + delta (_rising_bound), R = B for the standard
    variant and for the classic one at n = 1, and a second, cheaper bound L
    for the classic one at n >= 2. R* is a lower bound on
    log2 f that strictly increases on [k_rise, m], and R's float error is
    within B's, so the margin argument above gives R*(k) > T*, and every
    later j has f(j) >= 2^R*(j) > 2^R*(k) > 2^T*: more than the best rate
    so far, and every later best rate is smaller still (or p, in
    _rate_at_most). Each k costs one O(1) evaluation of B, a skipped k
    from k_rise on one of R after it, and a rated k whose bracket is cut
    one more B for its q (_rate_source).

    Standard variant: k_rise is the least integer above k0 (1 + 2^-40),
    k0 = ln 2 / |ln q| in floats. B rises from there: with q = (1 - 1/m)^n
    and y = q^k,

        B*(k) = k log2(1 - y) = -ln(y) ln(1 - y) / (|ln q| ln 2).

    ln(y) ln(1 - y) is positive on (0, 1) and its derivative is
    r(1 - y) - r(y) with r(t) = ln(t)/(1 - t); r increases on (0, 1)
    (r' has the sign of 1/t - 1 + ln t > 0), so the derivative is positive
    on (0, 1/2) and negative on (1/2, 1). y falls as k grows, so B* falls
    while y > 1/2, has its one minimum at y = 1/2 (k = k0*), and rises
    after. The float k0 is within 8u of k0* relative, so k >= k_rise gives
    k > k0*, and B*(j) > B*(k) for every j > k. (At m = 1, B is the exact
    log2 f = 0 and k_rise = 1.)

    Classic variant: L is proven to rise from k_rise on. The bit sum X is
    at least k, and for k <= x <= m,
    C(x, k) / C(m, k) = prod_(i<k) (x - i)/(m - i) >= g(x),
    g(x) = ((x - k + 1)/(m - k + 1))^k, as each factor is at least the last.
    g is convex, so by Jensen f_C >= g(mu), mu = E[X]:

        L*(k) = k log2(1 - a),  a = m (1 - k/m)^n / (m - k + 1),

    since 1 - a = (mu - k + 1)/(m - k + 1). L* <= B* (the last factor
    against all k of them), so L passes the cut only where B does. For
    k < m, a is in (0, 1) and d ln(a)/dk = -s, s(k) = n/(m - k) -
    1/(m - k + 1), so

        (ln 2) dL*/dk = ln(1 - a) + k s a/(1 - a),

    positive exactly when k s > phi(a) = -(1 - a) ln(1 - a)/a, and phi < 1
    on (0, 1) (ln x < x - 1 at x = 1/(1 - a)). d(k s)/dk =
    n m/(m - k)^2 - (m + 1)/(m - k + 1)^2 >= 0 for n >= 1 (it grows with n,
    and at n = 1, with j = m - k, m (j + 1)^2 - (m + 1) j^2 =
    2mj + m - j^2 > 0), so once
    k s(k) >= 1, the integer test of k_rise, it holds for every later k:
    L* strictly increases on [k_rise, m], up to L*(m) = 0. The float L
    takes mu - k + 1 = 1 + (m - k) y, y = 1 - (1 - k/m)^(n-1) =
    -expm1((n - 1) log1p(-k/m)). The rounded k/m moves log1p's value by at
    most u k/(m - k), and |ln(1 - k/m)| <= k/(m - k), so t = (n - 1) log1p(...)
    is within 3u (n - 1) k/(m - k), and y within 3u (n - 1) k p/(m - k)
    + u y, p = 1 - y. By the mean value theorem y >= (n - 1) k p/(m - k),
    so y is within 4u y relative, 1 + (m - k) y within 6u, the quotient
    within 7u, and L within 7uk/ln 2 + 2u|L| <= 48u c_m + 2u|L|: inside
    B's error, and L <= 0 as y <= 1, so the margin argument holds for L
    as for B. (tests/test_analytics.py finds L within 2^-13 delta of a
    60-digit evaluation of its formula up to m = 10^6.)

    Classic variant at n = 1: R is B itself, and k_rise = ceil(m/2). One
    item sets exactly k bits, so X = k, mu = k and f_C = 1/C(m, k) exactly:
    B*(k) = log2 C(k, k) - log2 C(m, k) = log2 f_C. As
    C(m, k+1)/C(m, k) = (m - k)/(k + 1) is under 1 exactly when
    k >= ceil(m/2), B* strictly increases on [ceil(m/2), m], up to
    B*(m) = 0, and R's float error is B's own. L would rise only from
    about m - sqrt(m).

    Brackets: a k that is not skipped gets lo <= f(k) <= hi and a thunk for
    f(k) that sums the same terms uncut. Both rates are alternating sums
    sum_j (-1)^j a_j b_j^e / D of nonnegative integers with b_0 the largest
    base (standard: A(k, j) and (m-j)^(nk) over m^(nk+k), stepped through k
    by _standard_rate_steps; classic: C(k, i) and C(m-i, k)^n over
    C(m, k)^n, _classic_terms). _rate_bracket cuts each factor to about q
    significant bits, in integer arithmetic only. The bracket is at most
    2^(2-q) S / D wide, S = (sum_j a_j) b_0^e, and S / D <= 2^k in both
    variants: classic, since sum_i C(k, i) = 2^k and D = C(m, k)^n;
    standard, since the row recurrence of _coefficient_step gives
    sum_j A(k+1, j) = 2 sum_j (m-j) A(k, j) <= 2m sum_j A(k, j), so
    sum_j A(k, j) <= (2m)^k, while b_0 = m^(nk). q = k + ceil(-B(k)) + 43
    and B(k) <= log2 f(k) then make the bracket at most 2^-41 f(k) wide,
    and rounding it out to 64-bit dyadics keeps it under 2^-40 f(k). Where
    the cut would be under 512 bits per term, which saves less than the
    bracket costs, the bracket is the exact rate.

    Chain brackets: for the standard variant at n <= 2, _chain_brackets
    brackets f(k) = sum_x P_(nk)(x) (x/m)^k from the occupancy chain in
    floats, whose terms are all nonnegative. With u = 2^-53, each float
    product or quotient is its exact value times some (1 + d), |d| <= u,
    plus some e, |e| <= 2^-1075, nonzero only for a subnormal result; a sum
    of two floats takes only the (1 + d). A throw forms
    fl(fl(P(x) c_x) + fl(P(x-1) d_x)), c_x = fl(x/m), d_x = fl((m-x+1)/m):
    three factors (1 + d) on each path per throw. Split the computed chain
    into R, the same arithmetic with every e set to 0, and D, the rest,
    which is linear in the e. Every coefficient is nonnegative, so R_N(x)
    is within (1 +- u)^(3N) of P_N(x). D's l1 norm grows by at most
    (1 + u)^3 per throw, as c_y + d_(y+1) = fl(y/m) + fl((m-y)/m) <= 1 + u,
    plus 2 L 2^-1075 for the new e, L = min(N, m) + 1 the urn counts
    carried: |D_N|_1 <= N L 2^-1074 (1 + u)^(3N). Each weight takes one
    factor c_x per k (math.prod, for an x new at k, the same k factors),
    so w_x is (x/m)^k within (1 +- u)^(2k) plus at most
    k 2^-1075 (1 + u)^k, and at most 1. Each term fl(P(x) w_x) adds one
    (1 + d) and one e, and sum() of the L nonnegative terms is within
    (1 +- u)^(L-1) of their exact sum S: left to right (CPython up to 3.11)
    each addition is one more factor; from 3.12 on, sum() is Neumaier's
    compensated sum (Higham 2002, section 4.3), which meets the same bound.
    There each step t_i = fl(s + x_i), s = t_(i-1), keeps its rounding error
    e_i = s + x_i - t_i exactly (the branch on |s| >= |x_i| is Fast2Sum,
    exact in binary floating point, subnormals included), and the result is
    fl(t_L + c), c the left-to-right float sum of the e_i, while
    S = t_L + sum_i e_i. The t_i are the left-to-right partial sums, so
    |e_i| <= u (t_(i-1) + x_i) <= u (1 + u)^(L-2) S and
    sum_i |e_i| <= (L - 1) u (1 + u)^(L-2) S; c is within
    gamma_(L-2) = (L-2)u/(1 - (L-2)u) of that (Higham's (4.4)), and the
    last addition rounds once. L = 1 is exact, L = 2 correctly rounded,
    and for L >= 3 with Lu <= 2^-5 (m < 2^48) the error is at most
    u S + 1.07 (L-1)(L-2) u^2 S <= ((L-1)u - (L-1)(L-2)u^2/2) S, within
    (1 - u)^(L-1) S and (1 + u)^(L-1) S. So with E = 3nk + 2k + L + 2 and
    (1 + u)^E <= 2 (Eu <= 1/2, true for m < 2^48, as E <= 9m + 3), the sum
    F is within (1 +- u)^E of f plus at most 2 (NL + k + L) 2^-1074 <= A =
    (3nk + 2k + 3) L 2^-1074.
    Bernoulli gives (1 + u)^-E >= 1 - Eu and
    (1 - u)^-E <= 1/(1 - Eu) <= 1 + 2Eu, so

        (F - A)(1 - Eu) <= f <= (F + A)(1 + 2Eu).

    lo and hi are formed in floats with E + 3 in place of E and A + 2^-1074
    in place of A: 1 - (E+3)u and 1 + 2(E+3)u are exact, and
    (1 + u)^2 (1 - (E+3)u) <= 1 - Eu, (1 - u)^2 (1 + 2(E+3)u) >= 1 + 2Eu
    and the extra 2^-1074 cover the two roundings, one of them possibly
    subnormal, of each end. The bracket is about 3Eu f wide, and A is
    under 2^-80 f where hi >= _CHAIN_FLOOR = 2^-960 and m <= 40,000.

    The scan keeps the best k's certified rate (kernel._Certified) and
    takes a k only where its rate is proven smaller, so ties go to the
    smaller k; T comes from the seed's hi, then from best hi, so the proofs
    above hold as written.

    Ties: k_max is the last walked k whose exact rate equals the best so far
    (reset by each new best). Every k with f(k) = f*, the optimum, is walked:
    a skipped k has f(k) > 2^T* >= f*, and either walk ends only where every
    later f(j) exceeds the best so far, >= f*. Such a k comes after the
    winner, and f(k) lies in both brackets, so rate.lo <= best.hi: exact
    rates are formed only where the improvement test formed them or the
    brackets touch. At n = 0 every k ties at rate 0, so k_max = m (_optimum).
    """
    if m < 1 or n < 0:
        raise ValueError("optimal_k requires m >= 1 and n >= 0")
    k, k_max, best, _ = _optimum(m, n, variant)
    return OptimalK(k, best.exact(), k_max)


def _optimum(
    m: int, n: int, variant: FilterVariant
) -> tuple[int, int, _Certified, _Certified]:
    """(k, k_max, f(k), f(seed)) of optimal_k's scan, the rates certified,
    the seed's _k_seed(m, n) from a source of its own; (1, m, 0, 0) at
    n = 0, where no bit is ever set and every k ties at rate 0."""
    if n == 0:
        return 1, m, _ZERO_RATE, _ZERO_RATE
    seed = _k_seed(m, n)
    seed_rate = _rate_source(m, n, variant)(seed)
    threshold = log2_fraction(seed_rate.hi)
    best_k = last = best = None
    for k, rate in _bracket_walk(m, n, variant, (seed, seed_rate), lambda: threshold):
        if best is None or rate.hi < best.lo or (
            rate.lo < best.hi and rate.exact() < best.exact()
        ):
            best_k, last, best = k, k, rate
            threshold = min(threshold, log2_fraction(rate.hi))
        elif rate.lo <= best.hi and rate.exact() == best.exact():
            last = k
    return best_k, last, best, seed_rate


def _bracket_walk(
    m: int,
    n: int,
    variant: FilterVariant,
    seed: tuple[int, _Certified] | None,
    limit: Callable[[], float],
) -> Iterator[tuple[int, _Certified]]:
    """(k, f(m, n, k) as a kernel._Certified) for k = 1..m in increasing
    order, less every k whose bound proves f(k) > 2^limit(): the candidate
    walk of optimal_k and _rate_at_most (n >= 1). Each k in turn is
    skipped if B(k) = _fpr_lower_bound_log2 exceeds the cut
    _prune_cut(m, limit()), and ends the walk if also k >= k_rise and its
    rising bound (_rising_bound, at most B) exceeds that cut (both proven
    in optimal_k's docstring); any other k is rated by one _rate_source.
    limit() is read at the start and after each yield, so the caller may
    lower it between candidates; it must never rise.

    The seed (k, f(k)), if given, takes both tests like any other k; only
    its rate is reused. _optimum starts T = limit() at log2 of the seed's
    hi, and B(seed) <= log2 f(seed) <= T within the float margin, so it is
    skipped (or the walk ended at or before it) only after a k whose rate
    is strictly smaller has lowered T.
    """
    rates = _rate_source(m, n, variant)
    # from k_rise on, the rising bound only rises: once above the cut,
    # above it for every later k
    k_rise, rising = _rising_bound(m, n, variant)
    cut = _prune_cut(m, limit())
    for k in range(1, m + 1):
        if _fpr_lower_bound_log2(m, n, k, variant) > cut:
            if k >= k_rise and rising(k) > cut:
                return
            continue
        yield k, seed[1] if seed and k == seed[0] else rates(k)
        cut = _prune_cut(m, limit())


def _rate_source(m: int, n: int, variant: FilterVariant) -> Callable[[int], _Certified]:
    """rate(k): f(m, n, k) as a kernel._Certified for k rising (or repeated)
    from call to call, by the one rule for how a rate is certified: 0
    exactly at n = 0, where no bit is ever set (and B = log2 0); the
    standard rate at n <= 2 takes the bracket of _chain_brackets while its
    hi is at least _CHAIN_FLOOR; any other rate _rate_bracket of its terms
    at q = k + ceil(-B(k)) + _GUARD_BITS bits, B = _fpr_lower_bound_log2,
    exact where nothing was cut (both proven in optimal_k's docstring).
    Chain brackets were measured faster at n <= 2 and slower at n >= 3,
    where B prunes most k and the chain must still step through every
    throw (BENCH_chain_brackets.json).
    """
    if n == 0:
        return lambda k: _ZERO_RATE
    if variant is FilterVariant.CLASSIC:
        terms, chained = partial(_classic_terms, m, n), None
    else:
        terms = _standard_rate_steps(m, n)
        chained = _chain_brackets(m, n) if n <= 2 else None

    def rate(k: int) -> _Certified:
        certified = chained(k) if chained else None
        if certified is None or certified.hi < _CHAIN_FLOOR:
            bound = _fpr_lower_bound_log2(m, n, k, variant)
            certified = _rate_bracket(*terms(k), k + math.ceil(-bound) + _GUARD_BITS)
        return certified

    return rate


def _rising_bound(
    m: int, n: int, variant: FilterVariant
) -> tuple[int, Callable[[int], float]]:
    """(k_rise, R) for _bracket_walk's stop (n >= 1): R(k) is a proven lower
    bound on log2 f(m, n, k) that strictly increases on k_rise <= k <= m,
    and whose float is within B(k)'s float error (optimal_k's docstring).

    standard: R is B itself, and k_rise is the least integer above
    k0 (1 + 2^-40), k0 = ln 2 / |ln q| in floats, q = (1 - 1/m)^n (1 at
    m = 1, where B is the exact 0).
    classic, n = 1: R is B, the exact log2 f = -log2 C(m, k), and k_rise
    is ceil(m/2), from where C(m, k) falls.
    classic, n >= 2: R is L, L(k) = k log2((mu - k + 1) / (m - k + 1)) with
    mu - k + 1 = 1 + (m - k)(1 - (1 - k/m)^(n-1)) summed without
    cancellation, and k_rise is the least k <= m - 1 with
    k (n (m-k+1) - (m-k)) >= (m-k)(m-k+1), bisected in integers, or m if
    there is none.
    """
    bound = partial(_fpr_lower_bound_log2, m, n, variant=variant)
    if variant is FilterVariant.STANDARD:
        k0 = LN2 / (n * -math.log1p(-1 / m)) if m > 1 else 0.0
        return math.floor(k0 * (1 + 2**-40)) + 1, bound
    if n == 1:
        return (m + 1) // 2, bound

    def rising(k: int) -> float:
        if k == m:
            return 0.0
        y = -math.expm1((n - 1) * math.log1p(-k / m))
        return k * math.log2((1 + (m - k) * y) / (m - k + 1))

    lo, hi = 1, m
    while lo < hi:
        mid = (lo + hi) // 2
        j = m - mid
        if mid * (n * (j + 1) - j) >= j * (j + 1):
            hi = mid
        else:
            lo = mid + 1
    return lo, rising


def _prune_cut(m: int, threshold: float) -> float:
    """T + delta, the bound above which _bracket_walk skips a k: delta =
    (|T| + m log2(m+1) + m + 1) 2^-40 bits is 2^7 times the float error of
    B(k) and T that it absorbs (optimal_k's docstring). The cut rises with
    T, and it needs no k, so one cut serves every k until T moves."""
    return threshold + (abs(threshold) + m * math.log2(m + 1) + m + 1) / 2**40


def _rate_at_most(m: int, n: int, variant: FilterVariant, target: Fraction) -> bool:
    """min_k f(m, n, k) <= target, decided without the minimum (n >= 1).

    The minimum meets target exactly when some k does, so this walks
    optimal_k's candidates (_bracket_walk) against the fixed threshold
    log2(target): optimal_k's margin proof covers a fixed threshold, so a
    skipped k has f(k) > target, and both variants' early stops hold for a
    fixed threshold as for a falling one. Each candidate's certified
    rate reads f <= target (kernel._Certified.read), summing its terms
    exactly only where its bracket straddles target.
    """
    limit = log2_fraction(target)
    walk = _bracket_walk(m, n, variant, None, lambda: limit)
    return any(rate.read(lambda f: f <= target) for _, rate in walk)


# optimal_k's brackets: q = k + ceil(-B(k)) + _GUARD_BITS significant bits
# per factor, ends rounded out to _WORD significant bits, and the exact rate
# where the cut would be under _MIN_CUT bits per term
_GUARD_BITS = 43
_WORD = 64
_MIN_CUT = 512
# _chain_brackets' unit roundoff u, and the hi below which the walk takes
# _rate_bracket instead
_CHAIN_U = 2.0**-53
_CHAIN_FLOOR = 2.0**-960
# a rate's terms: coeffs, bases, e, den and the base whose power den is
_Terms = tuple[list[int], list[int], int, int, int]
# every rate at n = 0
_ZERO_RATE = _Certified(Fraction(0), Fraction(0), Fraction)


def _rate_value(
    coeffs: list[int], bases: list[int], e: int, den: int, root: int
) -> Fraction:
    """sum_j (-1)^j coeffs[j] bases[j]^e / den, the rate of these _Terms,
    reduced against root (kernel._lowest_terms), whose power den is."""
    return _lowest_terms(_alternating_power_sum(coeffs, bases, e), den, root)


def _rate_bracket(
    coeffs: list[int], bases: list[int], e: int, den: int, root: int, q: int
) -> _Certified:
    """F / den as a kernel._Certified whose thunk sums these terms uncut,
    F = sum_j (-1)^j a_j b_j^e over coeffs a_j >= 0, bases b_0 >= b_j >= 0:
    lo <= F / den <= hi, hi - lo <= 2^(2-q) S / den, S = (sum_j a_j) b_0^e.

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
    exact = partial(_rate_value, coeffs, bases, e, den, root)
    sa = max(sum(coeffs).bit_length() - 1 - q - len(coeffs).bit_length(), 0)
    sb = max(bases[0].bit_length() - 1 - q - e.bit_length(), 0)
    scale = sa + e * sb
    if scale < _MIN_CUT:
        f = exact()
        return _Certified(f, f, exact)
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
    return _Certified(Fraction(lo, one), Fraction(hi, one), exact)


def _standard_rate_steps(m: int, n: int) -> Callable[[int], _Terms]:
    """terms(k) = (A(k, .), (m-j)^(nk), 1, m^(nk+k), m), the terms of
    fpr_standard_exact(m, n, k), for k rising (or repeated) from call to
    call: A(k, j) = C(m,j) nabla^j[x^k]_m for j <= min(k, m).

    The first call takes A(k, .) from one nabla_power_row table and later
    calls step it by _coefficient_step. Each held power steps by one
    multiply by (m-j)^(n (k - k_prev)), and only new j take a fresh power.
    Every call returns new lists, so earlier terms stay valid.
    """
    coeffs: list[int] = []
    powers: list[int] = []
    at = 0

    def terms(k: int) -> _Terms:
        nonlocal coeffs, powers, at
        if coeffs:
            for _ in range(at, k):
                coeffs = _coefficient_step(m, coeffs)
        else:
            row = nabla_power_row(m, k, min(k, m))
            coeffs = [comb(m, j) * d for j, d in enumerate(row)]
        gap = n * (k - at)
        powers = [p * (m - j) ** gap for j, p in enumerate(powers)]
        powers += [(m - j) ** (n * k) for j in range(len(powers), len(coeffs))]
        at = k
        return coeffs, powers, 1, m ** (n * k + k), m

    return terms


def _coefficient_step(m: int, row: list[int]) -> list[int]:
    """A(k+1, .) from A(k, .), A(k, j) = C(m,j) nabla^j[x^k]_m for
    j <= min(k, m), in O(k) small-integer work:

        A(0, .) = [1],  A(k+1, j) = (m-j) A(k, j) + (m-j+1) A(k, j-1).

    k+1 probe positions cover j given bits when the first k cover them and
    the last lands elsewhere, or the first k cover all but the one the last
    lands on; and j C(m,j) = (m-j+1) C(m,j-1). The row stops at j = m,
    where the factor m-j+1 leaves nothing for j = m+1.
    """
    lower = row + [0] if len(row) <= m else row
    return [
        (m - j) * a + (m - j + 1) * b for j, (a, b) in enumerate(zip(lower, [0] + row))
    ]


def _chain_brackets(m: int, n: int) -> Callable[[int], _Certified]:
    """bracket(k), the standard rate f(m, n, k) as a kernel._Certified
    from the occupancy chain in floats, for k rising (or repeated) from
    call to call (n >= 1); its thunk is fpr_standard_exact.

    P_N(x), the chance that N throws set x bits, steps one throw at a time,

        P_(N+1)(x) = P_N(x) x/m + P_N(x-1) (m-x+1)/m,

    n throws per k, and f(k) = sum_x P_(nk)(x) w_x with w_x = (x/m)^k, one
    multiply per weight per k. Every term is nonnegative, so nothing
    cancels: with L = min(nk, m) + 1 urn counts carried,
    E = 3nk + 2k + L + 2 and A = (3nk + 2k + 3) L 2^-1074, the float sum F
    gives (F - A)(1 - Eu) <= f <= (F + A)(1 + 2Eu), u = _CHAIN_U, and the
    bracket's float ends widen that to cover their own rounding (proof in
    optimal_k's docstring). It holds at any depth; where F underflows, A
    alone carries hi. Cost: O(n k L) float operations up to k in all.
    """
    # up[x] = fl(x/m) and down[x] = fl((m-x+1)/m), the chances that a throw
    # keeps x set bits at x or takes x - 1 to x, for the counts carried
    up, down = [0.0], [0.0]
    pmf, weights, at = [1.0], [1.0], 0

    def bracket(k: int) -> _Certified:
        nonlocal pmf, weights, at
        for j in range(at + 1, k + 1):
            for _ in range(n):
                if len(pmf) <= m:
                    x = len(pmf)
                    up.append(x / m)
                    down.append((m - x + 1) / m)
                shifted = chain((0.0,), pmf)
                pmf = [
                    p * c + q * d
                    for p, c, q, d in zip(chain(pmf, (0.0,)), up, shifted, down)
                ]
            weights = list(map(operator.mul, weights, up))
            weights += [math.prod(repeat(c, j)) for c in up[len(weights) :]]
        at = k
        size = len(pmf)
        total = sum(map(operator.mul, pmf, weights))
        # A + 2^-1074 and (E + 3) u also cover the roundings of the two ends
        slack = math.ldexp((3 * n * k + 2 * k + 3) * size + 1, -1074)
        rounding = (3 * n * k + 2 * k + size + 5) * _CHAIN_U
        return _Certified(
            (total - slack) * (1 - rounding),
            (total + slack) * (1 + 2 * rounding),
            partial(fpr_standard_exact, m, n, k),
        )

    return bracket


def _fpr_lower_bound_log2(m: int, n: int, k: int, variant: FilterVariant) -> float:
    """log2 of a proven lower bound on the exact rate (Jensen both times).

    standard: f_S = E[(X/m)^k] >= (E[X]/m)^k, E[X] = m (1 - (1 - 1/m)^(nk)).
    classic: X >= k always and x -> C(x, k) is convex there, so
    f_C >= C(mu, k) / C(m, k) with mu = m (1 - (1 - k/m)^n); in log form
    ln C(mu, k) = lgamma(mu + 1) - lgamma(mu - k + 1) for real mu > k - 1,
    so four lgamma calls replace the k-term product. Their rounding is
    counted in the float-error proof of optimal_k's pruning margin.

    m = 1: 0, the exact log2 f, as one urn is always set.
    """
    if m == 1:
        return 0.0
    if variant is FilterVariant.STANDARD:
        t = n * k * math.log1p(-1.0 / m)
        return k * math.log2(-math.expm1(t))
    if k >= m:
        return 0.0 if k == m else math.inf
    mu = m * -math.expm1(n * math.log1p(-k / m))
    # The exact mu is at least k and the float within 6um of it (optimal_k's
    # docstring), so this fires only past m ~ 2^50; mu = k is still a lower
    # bound there, as X >= k gives C(X, k) >= 1 = C(k, k).
    if mu <= k - 1 + 1e-12:
        mu = float(k)
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
    if m < 2:
        raise ValueError("max_efficiency_closed_form requires m >= 2")
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
        z, last = (1 + z) ** (1 / (k + 1)), z
        if abs(z - last) < 1e-12:
            break
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
    pair = intersection_moment(spec, 2)
    # var = mean + 2 pair - mean^2 from mean = s_1 / D, pair = s_2 / D over
    # the law's denominator D = m^(k sum n_i), reduced once
    throws = m ** (k * sum(counts))
    s_1 = mean.numerator * (throws // mean.denominator)
    s_2 = pair.numerator * (throws // pair.denominator)
    var = _lowest_terms(s_1 * (throws - s_1) + 2 * s_2 * throws, throws**2, m)
    return mean, var
