import itertools
import math
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bloomlab import analytics, kernel, oracle
from bloomlab.analytics import (
    InfeasibleError,
    UndefinedEfficiencyError,
    capacity_n_max,
    efficiency,
    fpr_bounds,
    fpr_classic_exact,
    fpr_exact,
    fpr_recursive,
    fpr_report,
    fpr_standard_exact,
    fpr_taylor,
    intersection_filter_moments,
    m_min_estimate,
    max_efficiency,
    max_efficiency_closed_form,
    n_max_estimate,
    optimal_k,
    optimal_k_estimate,
    peak_efficiency,
    size_m_min,
    valley_crossing,
    valley_residual,
)
from bloomlab.filters import FilterVariant
from bloomlab.kernel import log2_fraction, nabla_power, stirling2
from bloomlab.occupancy import classic_mean_variance

STD = FilterVariant.STANDARD
CLS = FilterVariant.CLASSIC


def intersection_filter_variance_printed_form(m, k, counts):
    """The variance expression for an AND of standard filters as printed in
    the source corollary; the paper's erratum, kept for comparison with
    intersection_filter_moments."""
    c = len(counts)
    total = sum(counts) * k
    p1 = 1
    p2 = 1
    p3 = 1
    for n_i in counts:
        a = m ** (n_i * k) - (m - 1) ** (n_i * k)
        p1 *= a
        p2 *= m ** (n_i * k) - 2 * (m - 1) ** (n_i * k) + (m - 2) ** (n_i * k)
        p3 *= a * a
    return (
        Fraction((-1) ** c * p1 + (m - 1) * p2, m ** (total - 1))
        + Fraction(p3, m ** (2 * (total - 1)))
    )


class TestExactRates:
    def test_standard_examples(self):
        assert fpr_standard_exact(2, 1, 2) == Fraction(5, 8)
        assert fpr_standard_exact(7, 0, 3) == 0
        assert fpr_standard_exact(1, 1, 1) == 1

    def test_classic_examples(self):
        assert fpr_classic_exact(5, 2, 3) == Fraction(11, 20)
        assert fpr_classic_exact(9, 1, 4) == Fraction(1, math.comb(9, 4))
        assert fpr_classic_exact(6, 2, 6) == 1

    def test_classic_equals_normalized_binomial_moment(self):
        from bloomlab.occupancy import MomentKind, committee_moment

        for m in range(2, 9):
            for k in range(1, m + 1):
                for n in range(0, 4):
                    lhs = fpr_classic_exact(m, n, k)
                    rhs = committee_moment(
                        m, n, k, k, MomentKind.BINOMIAL
                    ) / math.comb(m, k)
                    assert lhs == rhs

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_brute_force_equivalence(self, data):
        m = data.draw(st.integers(1, 5))
        n = data.draw(st.integers(0, 3))
        k = data.draw(st.integers(1, min(3, m)))
        assert fpr_standard_exact(m, n, k) == oracle.enumerate_fpr_standard(m, n, k)
        assert fpr_classic_exact(m, n, k) == oracle.enumerate_fpr_classic(m, n, k)

    def test_variants_coincide_at_k1(self):
        for m in range(1, 12):
            for n in range(0, 6):
                assert fpr_standard_exact(m, n, 1) == fpr_classic_exact(m, n, 1)


def _within_recursive_bound(approx, exact):
    """fpr_recursive's documented bound: |r - f| <= 2^-51 f + 2^-1074."""
    return abs(Fraction(approx) - exact) <= exact / 2**51 + Fraction(1, 2**1074)


class TestRecursiveBackend:
    def test_examples(self):
        assert fpr_recursive(2, 1, 2, STD) == pytest.approx(0.625, abs=1e-9)
        assert fpr_recursive(5, 2, 3, CLS) == pytest.approx(0.55, abs=1e-9)
        assert fpr_recursive(9, 0, 2, STD) == 0.0
        assert fpr_recursive(9, 0, 2, CLS) == 0.0

    @given(
        m=st.integers(2, 40),
        n=st.integers(1, 10),
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_six_significant_digits(self, m, n, data):
        k = data.draw(st.integers(1, max(1, (m - 1) // 2)))
        for variant in (STD, CLS):
            exact = fpr_exact(m, n, k, variant)
            assert _within_recursive_bound(fpr_recursive(m, n, k, variant), exact)

    def test_within_proven_bound(self):
        cells = [
            (m, n, k) for m in range(1, 41) for n in range(7) for k in range(1, m + 1)
        ]
        for m, n, k in cells + [(1024, 5, 133)]:
            for variant in (STD, CLS):
                got = fpr_recursive(m, n, k, variant)
                assert _within_recursive_bound(got, fpr_exact(m, n, k, variant)), (
                    m, n, k, variant
                )

    def test_ill_conditioned_cell(self):
        # (1 + W)^k is about 10^124 here: fixed 40 digits cannot carry it
        got = fpr_recursive(2048, 2, 700, STD)
        assert _within_recursive_bound(got, fpr_standard_exact(2048, 2, 700))
        assert got > 0

    def test_equals_the_rounded_exact_rate(self):
        # the integer table divides once, so the result is float(f) bit for
        # bit: m = 1, n = 0 and standard k > m included
        cells = [
            (m, n, k) for m in range(1, 41) for n in range(7) for k in range(1, m + 3)
        ]
        cells += [(2048, 2, 700), (1024, 1, 700), (1024, 5, 133), (1024, 5, 124)]
        cells += [(2048, 1, 1500)]
        for m, n, k in cells:
            for variant in (STD, CLS):
                if variant is CLS and k > m:
                    continue
                got = fpr_recursive(m, n, k, variant)
                assert got == float(fpr_exact(m, n, k, variant)), (m, n, k, variant)

    def test_rate_below_double_range_skips_the_recursion(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the recursion ran")

        # the table's powers (classic) and its level steps (both variants)
        monkeypatch.setattr(analytics, "comb", refuse)
        monkeypatch.setattr(analytics, "zip", refuse, raising=False)
        # f <= (1000/4096)^1000 < 2^-2000: 0.0 is the correctly rounded double
        assert fpr_recursive(4096, 1, 1000, STD) == 0.0
        assert fpr_recursive(4096, 1, 1000, CLS) == 0.0


class TestBounds:
    def test_worked_example(self):
        b = fpr_bounds(5, 2, 3)
        assert b.L == Fraction(5460, 15625)
        assert b.U == Fraction(9261, 15625)
        assert b.L <= fpr_classic_exact(5, 2, 3) <= b.U
        assert b.L <= fpr_standard_exact(5, 2, 3) <= b.U

    def test_zero_items(self):
        b = fpr_bounds(17, 0, 3)
        assert b.E == 0 and b.M == 0 and b.L == 0 and b.U == 0

    def test_m_is_the_power_computed_on_first_read(self):
        b = fpr_bounds(1024, 5, 133)
        assert b.M_base == 1 - Fraction(1023, 1024) ** 665
        assert b.M_exp == 133
        assert "M" not in vars(b)
        assert b.M == (1 - Fraction(1023, 1024) ** 665) ** 133
        assert b.M is b.M

    def test_numeric_ordering_large(self):
        b = fpr_bounds(1000, 20, 30)
        f_s = fpr_standard_exact(1000, 20, 30)
        assert b.E <= float(b.M) + 1e-15
        assert b.M <= f_s <= b.U


class TestTaylor:
    def test_k1_is_exactly_the_mean_ratio(self):
        mu, _ = classic_mean_variance(50, 3)
        assert fpr_taylor(50, 3, 1) == float(mu) / 50

    def test_small_case_matches_exact(self):
        assert fpr_taylor(2, 1, 2) == pytest.approx(0.625, abs=1e-12)

    def test_within_two_percent(self):
        exact = float(fpr_standard_exact(100, 20, 5))
        assert fpr_taylor(100, 20, 5) == pytest.approx(exact, rel=0.02)

    def test_no_overflow_at_paper_optimum(self):
        # mu ** (k - 2) alone overflows a double at (1024, 5, 133)
        t = fpr_taylor(1024, 5, 133)
        assert math.isfinite(t) and t > 0


def classic_lower_bound_log2_k_term(m, n, k):
    """log2 C(mu, k)/C(m, k) as a k-term sum of logs; reference for the
    lgamma form of the classic bound in analytics._fpr_lower_bound_log2."""
    if k >= m:
        return 0.0 if k == m else math.inf
    mu = m * -math.expm1(n * math.log1p(-k / m))
    if mu <= k - 1 + 1e-12:
        mu = float(k)
    return sum(math.log2(mu - i) - math.log2(m - i) for i in range(k))


# pi to 80 digits, for ln Gamma's constant term ln(2 pi) / 2
PI = Decimal("3.1415926535897932384626433832795028841971693993751058209749445923078164062862090")


def bernoulli_even(count):
    """B_2, B_4, ..., B_2count as Fractions, from
    sum_j C(n+1, j) B_j = 0 for n >= 1 with B_0 = 1."""
    b = [Fraction(1)]
    for n in range(1, 2 * count + 1):
        b.append(-sum(math.comb(n + 1, j) * b[j] for j in range(n)) / (n + 1))
    return b[2::2]


STIRLING_SERIES = [
    b / (2 * j * (2 * j - 1)) for j, b in enumerate(bernoulli_even(20), 1)
]


def decimal_lgamma(x):
    """ln Gamma(x) for a Decimal x >= 1 in the current context: the argument
    is shifted above 30, where 20 terms of Stirling's series leave an error
    under 1e-40."""
    shift = Decimal(1)
    while x < 30:
        shift *= x
        x += 1
    total = (x - Decimal("0.5")) * x.ln() - x + (2 * PI).ln() / 2 - shift.ln()
    for j, c in enumerate(STIRLING_SERIES, 1):
        total += Decimal(c.numerator) / c.denominator / x ** (2 * j - 1)
    return total


def lower_bound_log2_decimal(m, n, k, variant):
    """analytics._fpr_lower_bound_log2's formula (1 <= k < m) at 60 digits:
    Decimal ln and exp for the standard bound. The classic bound is
    -log2 C(m, k) exactly at n = 1, where mu = k, while C(m, k) is small
    enough to form; elsewhere it takes mu in Decimal and ln Gamma from
    decimal_lgamma."""
    if variant is CLS and n == 1 and min(k, m - k) <= 4096:
        return -log2_fraction(math.comb(m, k))
    with localcontext() as ctx:
        ctx.prec = 60
        dm, dn, dk = Decimal(m), Decimal(n), Decimal(k)
        if variant is STD:
            y = 1 - (dn * dk * (1 - 1 / dm).ln()).exp()
            return float(dk * y.ln() / Decimal(2).ln())
        mu = dm * (1 - (dn * (1 - dk / dm).ln()).exp())
        lg = decimal_lgamma
        nats = lg(mu + 1) - lg(mu - dk + 1) - lg(dm + 1) + lg(dm - dk + 1)
        return float(nats / Decimal(2).ln())


def rise_bound_log2_decimal(m, n, k):
    """The classic rising bound of analytics._rising_bound (1 <= k < m) at
    60 digits: B at n = 1, else L(k) = k log2((mu - k + 1)/(m - k + 1))
    with mu formed directly, mu = m (1 - (1 - k/m)^n), not as the float's
    1 + (m - k) y."""
    if n == 1:
        return lower_bound_log2_decimal(m, n, k, CLS)
    with localcontext() as ctx:
        ctx.prec = 60
        dm, dn, dk = Decimal(m), Decimal(n), Decimal(k)
        mu = dm * (1 - (dn * (1 - dk / dm).ln()).exp())
        return float(dk * ((mu - dk + 1) / (dm - dk + 1)).ln() / Decimal(2).ln())


def classic_rises(m, n, k):
    """The condition under which the classic rising bound increases (k < m):
    at n = 1, where it is B = -log2 C(m, k), C(m, k + 1) < C(m, k); else
    k s(k) >= 1 in Fractions, s(k) = n/(m - k) - 1/(m - k + 1)."""
    if n == 1:
        return math.comb(m, k + 1) < math.comb(m, k)
    s = Fraction(n, m - k) - Fraction(1, m - k + 1)
    return k * s >= 1


def traced_bounds(monkeypatch):
    """Four lists that record, from here on, each k at which the walk
    evaluates B (_fpr_lower_bound_log2) and the rising bound (B itself for
    the standard variant and the classic at n = 1, so its k go in both
    lists; L for the classic at n >= 2), each k a rate source
    (_rate_source) is asked to rate, and each k at which a rate source
    evaluates B itself, for a cut bracket's q (in neither of the first two
    lists)."""
    bound, rising_bound = analytics._fpr_lower_bound_log2, analytics._rising_bound
    source = analytics._rate_source
    bound_ks, rise_ks, rated, q_ks = [], [], [], []
    rating = []

    def traced_bound(m, n, k, variant):
        (q_ks if rating else bound_ks).append(k)
        return bound(m, n, k, variant)

    def traced_rising(m, n, variant):
        k_rise, rising = rising_bound(m, n, variant)

        def traced(k):
            rise_ks.append(k)
            return rising(k)

        return k_rise, traced

    def traced_source(m, n, variant):
        rate = source(m, n, variant)

        def traced(k):
            rated.append(k)
            rating.append(k)
            try:
                return rate(k)
            finally:
                rating.pop()

        return traced

    monkeypatch.setattr(analytics, "_fpr_lower_bound_log2", traced_bound)
    monkeypatch.setattr(analytics, "_rising_bound", traced_rising)
    monkeypatch.setattr(analytics, "_rate_source", traced_source)
    return bound_ks, rise_ks, rated, q_ks


def fpr_standard_stirling(m, n, k):
    """The standard rate in its Stirling form,

        f = sum_i S(k,i) m_(i) nabla^i[x^(nk)]_m / m^(nk+k),

    with its own difference table and loops, so it shares no code with the
    dual form that fpr_standard_exact and optimal_k's stepped scan use."""
    top = min(k, m)
    vals = [(m - j) ** (n * k) for j in range(top + 1)]
    row = [vals[0]]
    for _ in range(top):
        vals = [vals[j] - vals[j + 1] for j in range(len(vals) - 1)]
        row.append(vals[0])
    num, ff = 0, 1
    for i in range(top + 1):
        num += stirling2(k, i) * ff * row[i]
        ff *= m - i
    return Fraction(num, m ** (n * k + k))


def fpr_classic_direct(m, n, k):
    """The classic rate sum_i (-1)^i C(k,i) C(m-i,k)^n / C(m,k)^n as a plain
    loop, independent of the kernel's alternating-sum helper."""
    num = 0
    for i in range(k + 1):
        num += (-1) ** i * math.comb(k, i) * math.comb(m - i, k) ** n
    return Fraction(num, math.comb(m, k) ** n)


def scan_q(m, n, k, variant):
    """The bits per factor optimal_k asks of its bracket at k."""
    bound = analytics._fpr_lower_bound_log2(m, n, k, variant)
    return k + math.ceil(-bound) + analytics._GUARD_BITS


def rate_brackets(m, n, variant, ks, q=None):
    """(k, certified rate) from optimal_k's bracket of its terms for each k
    of ks, in order, at the scan's q or at a fixed q."""
    if variant is STD:
        terms = analytics._standard_rate_steps(m, n)
    else:
        terms = partial(analytics._classic_terms, m, n)
    for k in ks:
        yield k, analytics._rate_bracket(
            *terms(k), scan_q(m, n, k, variant) if q is None else q
        )


def neumaier_sum(values):
    """sum() of floats as CPython 3.12 and later compute it: Neumaier's
    compensated sum (Higham 2002, section 4.3), each rounding error kept
    exactly (Fast2Sum) and the errors summed apart, added once at the end."""
    total = compensation = 0
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    return total + compensation if compensation else total


def exact_rates_formed(monkeypatch):
    """A list recording each exact rate formed from here on: ("fpr_exact", k)
    for an fpr_exact call, "thunk" for a certified rate's thunk."""
    formed = []
    exact = analytics.fpr_exact

    def counted(m, n, k, variant):
        formed.append(("fpr_exact", k))
        return exact(m, n, k, variant)

    class Counted(kernel._Certified):
        def __init__(self, lo, hi, value):
            def thunk():
                formed.append("thunk")
                return value()

            super().__init__(lo, hi, thunk)

    monkeypatch.setattr(analytics, "fpr_exact", counted)
    monkeypatch.setattr(analytics, "_Certified", Counted)
    return formed


class TestRateBrackets:
    def test_brackets_hold_the_exact_rate(self):
        # every k at m <= 40, n <= 6, and deep cuts at the paper's optimum
        # and at a low load; the width stays under 2^-40 of the rate, and
        # the thunk of a cut bracket sums the uncut terms to the exact rate
        cells = [(m, n, range(1, m + 1)) for m in range(1, 41) for n in range(1, 7)]
        cells += [(1024, 5, range(120, 146)), (256, 1, [138])]
        cut = 0
        for m, n, ks in cells:
            for variant in (STD, CLS):
                for k, rate in rate_brackets(m, n, variant, ks):
                    lo, hi = rate.lo, rate.hi
                    exact = fpr_exact(m, n, k, variant)
                    assert lo <= exact <= hi, (m, n, k, variant)
                    assert hi - lo <= exact / 2**40, (m, n, k, variant)
                    cut += lo < hi
                    assert rate.exact() == exact, (m, n, k, variant)
        assert cut > 500

    def test_bracket_survives_worst_case_rounding(self):
        # factors ending in all ones lose almost a whole unit when cut, and
        # ones ending in ...0001 almost nothing; bases equal to or just under
        # the largest one make its rounding bounds tight for every term
        top = 1 << 2000
        shapes = itertools.product((1, 2, 5), (8, 30), (1, 2, 3), (-1, 2))
        for e, q, size, slope in shapes:
            for ends in itertools.product((1, -1), repeat=4):
                even, odd, rb0, rb = ends  # low ends of a_j (j even, odd), b_0, b_j
                if rb > rb0:
                    continue
                ends_a = [odd if j % 2 else even for j in range(size)]
                coeffs = [(9 + slope * j) * top + r for j, r in enumerate(ends_a)]
                bases = [5 * top + rb0] + [5 * top + rb] * (size - 1)
                den = sum(coeffs) * bases[0] ** e
                # every prime of den divides sum(coeffs) * bases[0]
                root = sum(coeffs) * bases[0]
                rate = analytics._rate_bracket(coeffs, bases, e, den, root, q)
                lo, hi = rate.lo, rate.hi
                f = Fraction(kernel._alternating_power_sum(coeffs, bases, e), den)
                assert lo <= f <= hi, (e, q, size, slope, ends)
                # den is S = (sum a) b_0^e: at most 2^(2-q) wide, plus rounding
                assert 0 < hi - lo <= Fraction(5, 2**q), (e, q, size, slope, ends)
                assert rate.exact() == f, (e, q, size, slope, ends)

    def test_untruncated_bracket_is_the_exact_rate(self):
        # more bits asked than any factor has: nothing is cut, and the
        # thunk (never called by exact() here) is the same exact rate
        for m, n in [(1, 1), (9, 2), (40, 6), (256, 1)]:
            for variant in (STD, CLS):
                ks = range(1, m + 1, max(1, m // 17))
                for k, rate in rate_brackets(m, n, variant, ks, q=10**6):
                    exact = fpr_exact(m, n, k, variant)
                    assert rate.lo == rate.hi == rate._value() == exact, (
                        m, n, k, variant
                    )

    def test_scan_is_unchanged_by_wide_brackets(self, monkeypatch):
        # 63 guard bits fewer, and a unit roundoff 2^63 times larger for the
        # chain brackets that serve (128, 2) and (256, 2), make the brackets
        # wider than the rates, so most comparisons fall back to exact
        # rates; the result may not move
        grid = [(96, 3, STD), (128, 2, STD), (256, 2, STD), (512, 8, STD)]
        grid += [(512, 8, CLS), (700, 10, CLS), (1000, 20, CLS)]
        want = {(m, n, v): optimal_k(m, n, v) for m, n, v in grid}
        monkeypatch.setattr(analytics, "_GUARD_BITS", analytics._GUARD_BITS - 63)
        monkeypatch.setattr(analytics, "_CHAIN_U", analytics._CHAIN_U * 2**63)
        formed = exact_rates_formed(monkeypatch)
        for (m, n, v), best in want.items():
            formed.clear()
            assert optimal_k(m, n, v) == best, (m, n, v)
            assert len(formed) > 2, (m, n, v)

    def test_chain_brackets_hold_the_exact_rate(self):
        self.check_chain_brackets()

    def test_chain_brackets_hold_under_a_compensated_sum(self, monkeypatch):
        # the same cells with sum() as CPython 3.12 and later run it, which
        # optimal_k's chain proof also covers; it rounds some totals apart
        # from the left-to-right sum
        apart = []

        def compensated(values):
            values = list(values)
            total = neumaier_sum(values)
            apart.append(total != sum(values))
            return total

        monkeypatch.setattr(analytics, "sum", compensated, raising=False)
        self.check_chain_brackets()
        assert any(apart) and len(apart) > 1000

    @staticmethod
    def check_chain_brackets():
        # every k at m <= 64, n = 1, 2; around k* = 138 at (256, 1) and
        # k* = 807 at (1500, 1), rates near 2^-930; and at m = 10^6, n = 1,
        # where the rates cross the walk's floor 2^-960 into the subnormals
        # (k = 74 .. 78) and below the least one, where the float sum is 0
        # and only the underflow slack A keeps hi above the rate. The width
        # stays within the proven one, about 3E'u f + 2A' with E' = E + 3
        # and A' = A + 2^-1074 as in the bracket, plus the ends' roundings;
        # and the thunk is the exact rate
        cells = [(m, n, range(1, m + 1)) for m in range(1, 65) for n in (1, 2)]
        cells += [(256, 1, range(130, 147)), (1500, 1, [800, 807])]
        cells += [(10**6, 1, [60, 70, 74, 76, 77, 78, 79, 90])]
        u = Fraction(analytics._CHAIN_U)
        below_floor = underflowed = 0
        for m, n, ks in cells:
            bracket = analytics._chain_brackets(m, n)
            for k in ks:
                rate, f = bracket(k), fpr_standard_exact(m, n, k)
                assert rate.lo <= f <= rate.hi, (m, n, k)
                size = min(n * k, m) + 1
                e = 3 * n * k + 2 * k + size + 5
                a = Fraction((3 * n * k + 2 * k + 3) * size + 1, 2**1074)
                width = (3 * e + 5) * u * f * (1 + e * u) + 4 * a
                assert rate.hi - rate.lo <= width, (m, n, k)
                below_floor += rate.hi < analytics._CHAIN_FLOOR
                underflowed += rate.lo < 0
                if m <= 8:
                    assert rate.exact() == f, (m, n, k)
        assert below_floor >= 5 and underflowed >= 2

    def test_chain_brackets_match_the_integer_chain(self):
        # the conjecture counterexample's own chain, counted in integers,
        # at (26, 12): a second exact reference for every k
        from test_conjecture_counterexample import chain_fpr_standard

        bracket = analytics._chain_brackets(26, 12)
        for k in range(1, 27):
            rate, f = bracket(k), chain_fpr_standard(26, 12, k)
            assert rate.lo <= f <= rate.hi, k
            assert rate.hi - rate.lo <= f / 2**40, k
            assert rate.exact() == f, k

    def test_touching_brackets_tie_toward_smaller_k(self, monkeypatch):
        # f(255, 1, 127) == f(255, 1, 128); brackets [f, f + t] at odd k and
        # [f - t, f] at even k touch at f, so only the exact rates decide.
        # The scan brackets the terms of k right after taking them
        terms, taken = analytics._classic_terms, []

        def traced_terms(m, n, k):
            taken.append(k)
            return terms(m, n, k)

        def touching(coeffs, bases, e, den, root, q):
            f = analytics._rate_value(coeffs, bases, e, den, root)
            t = f / 2**50
            lo, hi = (f, f + t) if taken[-1] % 2 else (f - t, f)
            return kernel._Certified(lo, hi, lambda: f)

        monkeypatch.setattr(analytics, "_classic_terms", traced_terms)
        monkeypatch.setattr(analytics, "_rate_bracket", touching)
        f = fpr_classic_exact(255, 1, 127)
        assert optimal_k(255, 1, CLS) == (127, f, 128)
        assert {127, 128} <= set(taken)


class TestOptimalK:
    def test_exact_mode_matches_unpruned_scan(self, monkeypatch):
        # the standard scan stops early at n >= 2 on m = 96, 128 (before m/2
        # from n = 3; at k = 53 and 70 for n = 2), and the classic scan
        # there stops before k = m, bounding neither B nor L at m. At the
        # high loads (16, 40) ... (64, 100) the optimum is k = 1 at a rate
        # above 2^-0.5: the seed is k = 1, which the standard scan bounds
        # and rates; it skips k = 2, whose rising bound (B again) stops it.
        # The classic n = 1 cells at m = 17, 33 tie at (m - 1)/2 and
        # (m + 1)/2: k_max is the larger. Every classic n = 1
        # walk stops just past m/2, where B = log2 f starts to rise. The
        # seed is rated first, before the walk, and once: the walk bounds
        # its k like any other (or ends at or before it), reusing its rate.
        # Every other rated k passed the walk's bound, and a source forms
        # B only for a k it rates
        bound_ks, rise_ks, rated, q_ks = traced_bounds(monkeypatch)
        grid = [(m, n) for m in (8, 17, 33, 64) for n in (1, 2, 5, 9)]
        grid += [(m, n) for m in (96, 128) for n in (1, 2, 3, 24)]
        high_load = [(16, 40), (24, 48), (32, 60), (40, 64), (64, 100)]
        grid += high_load
        # low loads, where the brackets cut most of every term; at n <= 2
        # the standard walk takes chain brackets (n = 3 does not), and at
        # (256, 1) forms only the winner's exact rate
        grid += [(256, 1), (256, 2), (65, 1), (200, 1), (160, 2), (160, 3)]
        oracle_rate = {STD: fpr_standard_stirling, CLS: fpr_classic_direct}
        formed = exact_rates_formed(monkeypatch)
        for m, n in grid:
            for variant in (STD, CLS):
                for traced in (bound_ks, rise_ks, rated, q_ks, formed):
                    traced.clear()
                best = optimal_k(m, n, variant)
                seed, walked = analytics._k_seed(m, n), bound_ks
                assert rated[0] == seed not in rated[1:], (m, n, variant)
                assert seed in walked + rise_ks or max(walked + rise_ks) < seed
                assert set(rated[1:]) <= set(walked), (m, n, variant)
                assert set(q_ks) <= set(rated), (m, n, variant)
                if (m, n, variant) == (256, 1, STD):
                    assert formed == ["thunk"], formed
                rates = [oracle_rate[variant](m, n, k) for k in range(1, m + 1)]
                f_star = min(rates)
                ties = [k for k, f in enumerate(rates, 1) if f == f_star]
                want = (f_star, ties[0], ties[-1])
                assert (best.fpr, best.k, best.k_max) == want, (m, n, variant)
                if n == 1 and variant is CLS:
                    assert max(walked + rise_ks) <= (m + 1) // 2 + 2, m
                if (m, n) in high_load:
                    assert best.fpr > Fraction(7071, 10**4), (m, n, variant)
                    if variant is STD:
                        assert walked == [1, 2, 2], (m, n)
                elif m >= 96 and n > 1 and variant is STD:
                    assert max(walked) < (m // 2 if n > 2 else m)
                elif m >= 96 and n > 1:
                    assert max(walked + rise_ks) < m, (m, n)

    def test_stepped_rates_match_stirling_form(self):
        # the first call takes its row from a table at its own k (k > 1 in
        # the last three orders); later calls step the row and the powers
        # over gaps of one, several and none (a repeated k), and past
        # k = m, where the row is capped (m = 1 caps it at once). The
        # stepped terms sum to the exact rate, and still do after later
        # steps; asked for more bits than any factor has, their bracket is
        # that rate; at the scan's q it holds it, and its thunk gives it
        for m, n in [(1, 1), (2, 3), (7, 1), (7, 4), (20, 2), (33, 5), (64, 2)]:
            irregular = sorted([1, 2, 5, 6, 6, 13, m, m])
            late = [m // 2 + 2, m + 2, m + 2, m + 5]
            orders = (range(1, m + 1), range(1, m + 1, 3), irregular, [m],
                      late, [3, 3, 4, 9])
            for ks in orders:
                steps = analytics._standard_rate_steps(m, n)
                held = []
                for k in ks:
                    want = fpr_standard_stirling(m, n, k)
                    terms = steps(k)
                    held.append((k, want, terms))
                    assert analytics._rate_value(*terms) == want, (m, n, k)
                    whole = analytics._rate_bracket(*terms, 10**6)
                    assert whole.lo == whole.hi == want, (m, n, k)
                    rate = analytics._rate_bracket(*terms, scan_q(m, n, k, STD))
                    assert rate.lo <= want <= rate.hi, (m, n, k)
                    assert rate.exact() == want, (m, n, k)
                for k, want, terms in held:
                    assert analytics._rate_value(*terms) == want, (m, n, k)

    def test_dual_coefficient_rows_match_nabla_power(self):
        # A(k, j) = C(m,j) nabla^j[x^k]_m, stepped from A(0, .) = [1],
        # including m < k
        for m in range(1, 41):
            row = [1]
            for k in range(41):
                if k:
                    row = analytics._coefficient_step(m, row)
                assert row == [
                    math.comb(m, j) * nabla_power(m, k, j)
                    for j in range(min(k, m) + 1)
                ], (m, k)

    def test_one_urn_is_always_set(self):
        # m = 1: f = 1 for every n >= 1, so B is its exact log2, 0, and no
        # target below 1 is met, even one whose cut lies above 0
        near_one = Fraction(1) - Fraction(1, 2**45)
        assert analytics._prune_cut(1, log2_fraction(near_one)) > 0
        for n in (1, 2, 7):
            for k in (1, 2, 5):
                assert analytics._fpr_lower_bound_log2(1, n, k, STD) == 0.0
                assert fpr_recursive(1, n, k, STD) == 1.0
            assert fpr_recursive(1, n, 1, CLS) == 1.0
            for variant in (STD, CLS):
                for target in (near_one, Fraction(1, 2)):
                    assert not analytics._rate_at_most(1, n, variant, target)
        for variant in (STD, CLS):
            with pytest.raises(InfeasibleError):
                capacity_n_max(1, 0.5, variant)

    def test_classic_bound_equals_k_term_sum(self):
        for m in range(2, 301):
            ks = sorted({*range(1, m, max(1, m // 12)), m - 1, m})
            for n in (1, 2, 3, 7, 40):
                for k in ks:
                    fast = analytics._fpr_lower_bound_log2(m, n, k, CLS)
                    ref = classic_lower_bound_log2_k_term(m, n, k)
                    assert fast == pytest.approx(ref, rel=0, abs=1e-9), (m, n, k)

    def test_bound_is_below_exact_rate(self):
        for m in range(2, 41):
            for n in (1, 2, 3, 5, 8):
                for variant in (STD, CLS):
                    for k in range(1, m + 1):
                        bound = analytics._fpr_lower_bound_log2(m, n, k, variant)
                        exact = log2_fraction(fpr_exact(m, n, k, variant))
                        assert bound <= exact + 1e-9, (m, n, k, variant)

    def test_bound_float_error_is_inside_the_margin(self):
        # B(k) against its own formula at 60 digits, up to m = 10^6: off by
        # at most an eighth of the pruning margin delta at T = 0, its least
        for m in (2, 3, 10, 97, 1024, 4099, 65536, 10**6):
            delta = analytics._prune_cut(m, 0.0)
            for n in (1, 2, 7, 300, 10**5):
                seed = analytics._k_seed(m, n)
                ks = {1, 2, seed, m // 3, m - 2, m - 1} & set(range(1, m))
                for variant in (STD, CLS):
                    for k in sorted(ks):
                        fast = analytics._fpr_lower_bound_log2(m, n, k, variant)
                        ref = lower_bound_log2_decimal(m, n, k, variant)
                        assert abs(fast - ref) <= delta / 8, (m, n, k, variant)

    def test_standard_bound_falls_then_rises(self):
        # one minimum, at k0 = ln 2 / |ln q|: the point optimal_k stops after
        for m in (2, 5, 16, 61, 128, 256):
            for n in (1, 2, 3, 9, 30, 200):
                k0 = math.log(2) / (n * -math.log1p(-1 / m))
                b = [analytics._fpr_lower_bound_log2(m, n, k, STD) for k in range(1, m + 2)]
                for k in range(1, m + 1):  # compares B(k) with B(k + 1)
                    if k + 1 <= k0:
                        assert b[k] <= b[k - 1] + 1e-12, (m, n, k)
                    elif k >= k0:
                        assert b[k] >= b[k - 1] - 1e-12, (m, n, k)

    def test_classic_rise_bound_is_below_exact_rate(self):
        # L <= log2 f_C, and L <= B: L stops no walk at a k that B keeps
        for m in range(1, 41):
            for n in (1, 2, 3, 5, 8):
                _, rising = analytics._rising_bound(m, n, CLS)
                for k in range(1, m + 1):
                    exact = log2_fraction(fpr_classic_exact(m, n, k))
                    assert rising(k) <= exact + 1e-9, (m, n, k)
                    if m > 1:
                        bound = analytics._fpr_lower_bound_log2(m, n, k, CLS)
                        assert rising(k) <= bound + 1e-9, (m, n, k)

    def test_classic_rise_bound_rises_from_k_rise(self):
        # on the grid of test_standard_bound_falls_then_rises, up to
        # R(m) = 0; at n = 1 R is B, which rises from ceil(m/2)
        for m in (2, 5, 16, 61, 128, 256):
            for n in (1, 2, 3, 9, 30, 200):
                k_rise, rising = analytics._rising_bound(m, n, CLS)
                b = [rising(k) for k in range(k_rise, m + 1)]
                assert b[-1] == 0.0, (m, n)
                for k, (lo, hi) in enumerate(zip(b, b[1:]), k_rise):
                    assert hi >= lo - 1e-12 * (1 + abs(lo)), (m, n, k)

    def test_classic_k_rise_matches_fraction_scan(self):
        # k_rise is the least k <= m - 1 that meets classic_rises' test
        # (k s(k) >= 1; C(m, k + 1) < C(m, k) at n = 1), or m, and every
        # k from k_rise to m - 1 meets it
        for m in range(1, 301):
            for n in (1, 2, 3, 7, 40):
                rises = [k for k in range(1, m) if classic_rises(m, n, k)]
                want = rises[0] if rises else m
                assert rises == list(range(want, m)), (m, n)
                assert analytics._rising_bound(m, n, CLS)[0] == want, (m, n)

    def test_classic_rise_bound_float_error_is_inside_the_margin(self):
        # R(k) against its formula at 60 digits, up to m = 10^6, n = 1 (B)
        # and k = m - 1 included: off by at most an eighth of the margin at
        # T = 0
        for m in (2, 3, 10, 97, 1024, 4099, 65536, 10**6):
            delta = analytics._prune_cut(m, 0.0)
            for n in (1, 2, 7, 300, 10**5):
                _, rising = analytics._rising_bound(m, n, CLS)
                seed = analytics._k_seed(m, n)
                ks = {1, 2, seed, m // 3, m - 2, m - 1} & set(range(1, m))
                for k in sorted(ks):
                    ref = rise_bound_log2_decimal(m, n, k)
                    assert abs(rising(k) - ref) <= delta / 8, (m, n, k)

    def test_classic_walk_stops_only_where_the_rising_bound_does(
        self, monkeypatch
    ):
        # at limit 0 neither bound passes the cut; B forced above it at
        # k_rise skips that k alone, and the walk goes on to k = m
        m, n = 20, 2
        k_rise, _ = analytics._rising_bound(m, n, CLS)
        bound = analytics._fpr_lower_bound_log2

        def bound_above_at_k_rise(m, n, k, variant):
            return math.inf if k == k_rise else bound(m, n, k, variant)

        monkeypatch.setattr(analytics, "_fpr_lower_bound_log2", bound_above_at_k_rise)
        walked = [k for k, _ in analytics._bracket_walk(m, n, CLS, None, lambda: 0.0)]
        assert 1 < k_rise < m
        assert walked == [k for k in range(1, m + 1) if k != k_rise]

    @pytest.mark.parametrize(
        "m, n, bounds, rises, first, last",
        [(64, 4, 20, 5, 8, 13), (1000, 20, 50, 1, 29, 39),
         (1024, 5, 248, 44, 95, 169)],
    )
    def test_classic_bound_evaluations(
        self, monkeypatch, m, n, bounds, rises, first, last
    ):
        # the walk evaluates B at each k, the seed's included, and L at
        # each k from k_rise that B skips, until L passes the cut too: 64,
        # 1,000 and 1,024 B evaluations when the classic walk went to m.
        # Here B skips every k from k_rise on. Every classic bracket is cut
        # from terms, so the source forms one more B at each k it rates:
        # the seed first, then first..last less the seed (6, 11 and 75 in
        # all), whose rate is reused, not formed again
        bound_ks, rise_ks, rated, q_ks = traced_bounds(monkeypatch)
        optimal_k(m, n, CLS)
        k_rise, _ = analytics._rising_bound(m, n, CLS)
        seed = analytics._k_seed(m, n)
        assert (len(bound_ks), len(rise_ks)) == (bounds, rises)
        assert bound_ks == list(range(1, rise_ks[-1] + 1))
        assert rise_ks == list(range(k_rise, k_rise + rises))
        assert first <= seed <= last
        rest = [k for k in range(first, last + 1) if k != seed]
        assert q_ks == rated == [seed, *rest]

    @pytest.mark.parametrize("variant", [STD, CLS])
    def test_walk_tests_the_seed_and_reuses_its_rate(self, monkeypatch, variant):
        # the seed here is k_rise. At limit 0 no bound passes the cut, so
        # every k is walked: the seed's k is bounded like the rest, yields
        # the given rate, and no source rates it. Far below every rate, B
        # skips every k, and the seed's rising bound ends the walk there
        m, n = 40, 3
        seed, _ = analytics._rising_bound(m, n, variant)
        bound_ks, rise_ks, rated, _ = traced_bounds(monkeypatch)
        given = kernel._Certified(Fraction(1), Fraction(1), Fraction)
        walk = partial(analytics._bracket_walk, m, n, variant, (seed, given))
        walked = dict(walk(lambda: 0.0))
        assert list(walked) == list(range(1, m + 1))
        assert walked[seed] is given
        assert rated == [k for k in walked if k != seed]
        bound_ks.clear()
        rise_ks.clear()
        assert 1 < seed < m
        assert list(walk(lambda: -1e6)) == []
        assert rise_ks == [seed]
        assert sorted(set(bound_ks)) == list(range(1, seed + 1))

    @pytest.mark.parametrize("variant", [STD, CLS])
    def test_zero_items_rate_and_optimum(self, variant):
        # no bit is ever set: every rate is exactly 0 (B would be log2 0),
        # and every k ties, so the optimum is k = 1 with k_max = m
        for m in (1, 2, 7, 64, 1024):
            rate = analytics._rate_source(m, 0, variant)
            top = m if variant is CLS else m + 3
            for k in sorted({1, 2, 3, m // 2 + 1, top} & set(range(1, top + 1))):
                f = rate(k)
                assert f.lo == f.hi == f.exact() == 0, (m, k)
            k, k_max, best, seed = analytics._optimum(m, 0, variant)
            assert (k, k_max) == (1, m)
            assert best.lo == best.hi == seed.lo == seed.hi == 0
            assert optimal_k(m, 0, variant) == (1, 0, m)

    def test_ties_break_toward_smaller_k(self):
        best = optimal_k(255, 1, CLS)
        assert best.k == 127
        assert fpr_classic_exact(255, 1, 128) == best.fpr

    @pytest.mark.parametrize(
        "m, n, variant, evals",
        [(64, 4, STD, 1), (64, 4, CLS, 1), (1000, 20, STD, 2),
         (1000, 20, CLS, 2), (1024, 5, STD, 2), (1024, 5, CLS, 2)],
    )
    def test_exact_rates_computed(self, monkeypatch, m, n, variant, evals):
        # the winner's thunk where its bracket cut something (at m = 64 none
        # does; evals also counts the seed, whose bracket decides it): no
        # pair of brackets here needs exact rates, and a caller that reads
        # only the brackets (_optimum) forms none
        formed = exact_rates_formed(monkeypatch)
        best = optimal_k(m, n, variant)
        assert formed == ["thunk"] * (evals - 1), formed
        assert best.fpr == fpr_exact(m, n, best.k, variant)
        formed.clear()
        k, k_max, _, _ = analytics._optimum(m, n, variant)
        assert (k, k_max, formed) == (best.k, best.k_max, [])

    def test_estimate_mode(self):
        assert optimal_k_estimate(64, 4) == pytest.approx(16 * math.log(2), rel=1e-12)
        with pytest.raises(ValueError):
            optimal_k_estimate(64, 0)

    def test_zero_items(self):
        assert optimal_k(32, 0, STD) == (1, 0, 32)


def capacity_n_max_probing_n1(m, p, variant):
    """capacity_n_max with every probe an optimal_k solve, n = 1 first; the
    reference for its feasibility probe and its search."""
    target = Fraction(p)

    def ok(n):
        return optimal_k(m, n, variant).fpr <= target

    if not ok(1):
        raise InfeasibleError(f"rate {p} unreachable at m={m} even for n=1")
    lo, hi = 1, max(2, round(n_max_estimate(m, p)))
    while ok(hi):
        lo, hi = hi, hi * 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if ok(mid) else (lo, mid)
    return lo


def size_m_min_probing_optimal_k(n, p, variant):
    """size_m_min with every probe an optimal_k solve, galloping both ways
    from the seed; the reference for its feasibility probe and its search."""
    target = Fraction(p)

    def ok(m):
        return optimal_k(m, n, variant).fpr <= target

    hi = max(n, 1, round(m_min_estimate(n, p)))
    while not ok(hi):
        hi *= 2
    lo = hi // 2
    while lo > 0 and ok(lo):
        hi, lo = lo, lo // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if ok(mid) else (mid, hi)
    return hi


NEAR_ONE = (0.3, 0.5, 0.9, 0.99)


@pytest.fixture(scope="module")
def probe_grid_minima():
    """(m, n, variant, min_k f(m, n, k)) for every m <= 24 and n <= 2m."""
    return [
        (m, n, variant, min(fpr_exact(m, n, k, variant) for k in range(1, m + 1)))
        for variant in (STD, CLS)
        for m in range(1, 25)
        for n in range(1, 2 * m + 1)
    ]


class TestCapacity:
    def test_estimates(self):
        assert n_max_estimate(1024, 2**-10) == pytest.approx(
            1024 * math.log(2) / 10, rel=1e-12
        )
        assert m_min_estimate(100, 0.01) == pytest.approx(
            100 * math.log2(100) / math.log(2), rel=1e-12
        )
        with pytest.raises(ValueError):
            n_max_estimate(64, 1.0)

    def test_n_max_bracketing(self):
        m, p = 64, 1e-3
        for variant in (STD, CLS):
            n_max = capacity_n_max(m, p, variant)
            assert float(optimal_k(m, n_max, variant).fpr) <= p
            assert float(optimal_k(m, n_max + 1, variant).fpr) > p

    def test_m_min_bracketing(self):
        n, p = 10, 1e-3
        for variant in (STD, CLS):
            m_min = size_m_min(n, p, variant)
            assert float(optimal_k(m_min, n, variant).fpr) <= p
            if m_min > 1:
                assert float(optimal_k(m_min - 1, n, variant).fpr) > p

    def test_probe_matches_unpruned_minimum(self, probe_grid_minima):
        # every m <= 24 and n <= 2m, m = 1 and the high loads above 2^-0.5
        # included; targets at the minimum (a tie meets it), a hair either
        # side, and spread over the rates the grid reaches
        spread = [Fraction(10 ** (-i / 4)) for i in range(1, 25)]
        for m, n, variant, best in probe_grid_minima:
            hair = best / 2**200
            for target in [best, best - hair, best + hair, *spread]:
                got = analytics._rate_at_most(m, n, variant, target)
                assert got == (best <= target), (m, n, variant, target)

    def test_probe_oracle_sees_an_unsafe_margin(
        self, monkeypatch, probe_grid_minima
    ):
        # a margin of -1e-6 bits skips k whose bound sits within 1e-6 bits
        # under the threshold: exact bounds (k = 1 standard, n = 1 classic)
        # at a tie target, so the probe above must fail
        monkeypatch.setattr(analytics, "_prune_cut", lambda m, t: t - 1e-6)
        wrong = {
            variant
            for m, n, variant, best in probe_grid_minima
            if not analytics._rate_at_most(m, n, variant, best)
        }
        assert wrong == {STD, CLS}

    def test_m_min_matches_optimal_k_probes(self):
        # rates near 1 give seeds of 1 or less
        cells = itertools.product((1, 2, 3, 5, 9, 16), (1e-6, 3e-5, 1e-3, 1e-2, 0.3))
        cells = [*cells, *itertools.product((1, 2, 3), NEAR_ONE)]
        for n, p in cells:
            for variant in (STD, CLS):
                want = size_m_min_probing_optimal_k(n, p, variant)
                assert size_m_min(n, p, variant) == want, (n, p, variant)

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            capacity_n_max(1, 1e-9, STD)
        for variant in (STD, CLS):
            with pytest.raises(InfeasibleError):
                capacity_n_max(8, 1e-3, variant)

    def test_n_max_and_infeasibility_match_exact_probe(self):
        # small m and rates near 1 give seeds of 1 or less, and seeds far
        # past the answer: at (2, 0.99) the closed form gives n = 96
        cells = itertools.product((1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 128),
                                  (1e-6, 3e-5, 1e-3, 1e-2))
        cells = [*cells, *itertools.product((1, 2, 3, 4), NEAR_ONE)]
        for m, p in cells:
            for variant in (STD, CLS):
                try:
                    expected = capacity_n_max_probing_n1(m, p, variant)
                except InfeasibleError:
                    with pytest.raises(InfeasibleError):
                        capacity_n_max(m, p, variant)
                else:
                    assert capacity_n_max(m, p, variant) == expected, (m, p)
        for variant in (STD, CLS):
            assert capacity_n_max(2, 0.99, variant) == 6
        with pytest.raises(ValueError):
            capacity_n_max(64, 1.5, STD)

    def test_no_pair_probed_twice(self, monkeypatch):
        # seeds that undershoot (size_m_min(16, 1e-6)), overshoot
        # (capacity_n_max(2, 0.99)) and sit at 1 (capacity_n_max(2, 0.5))
        probed = []
        probe = analytics._rate_at_most

        def traced_probe(m, n, variant, target):
            probed.append((m, n))
            return probe(m, n, variant, target)

        monkeypatch.setattr(analytics, "_rate_at_most", traced_probe)
        calls = [partial(size_m_min, n, p) for n in (1, 5, 16) for p in (1e-6, 1e-3, 0.3)]
        cells = [(2, 0.99), (2, 0.5), (16, 1e-2), (64, 1e-3), (128, 1e-6)]
        calls += [partial(capacity_n_max, m, p) for m, p in cells]
        for call in calls:
            for variant in (STD, CLS):
                probed.clear()
                call(variant)
                assert probed and len(set(probed)) == len(probed), (call, variant)


class TestEfficiency:
    def test_documented_points(self):
        assert efficiency(100, 69, 1, STD) == pytest.approx(0.6897, abs=5e-4)
        expect = math.log2(math.comb(100, 50)) / 100
        assert efficiency(100, 1, 50, CLS) == pytest.approx(expect, rel=1e-9)
        assert expect == pytest.approx(0.9635, abs=5e-4)

    def test_saturated_rate_gives_zero(self):
        assert efficiency(4, 3, 4, CLS) == 0.0

    def test_undefined_for_no_items(self):
        with pytest.raises(UndefinedEfficiencyError):
            efficiency(16, 0, 2, STD)

    def test_walker_ceiling(self):
        for m in (16, 64, 100):
            for n in (1, 5, 20):
                for k in (1, 2, 5):
                    for variant in (STD, CLS):
                        eps = efficiency(m, n, k, variant)
                        assert 0 <= eps <= 1

    def test_tiny_rates_stay_accurate(self):
        # log2 path must survive rates far below double-precision range
        eps = efficiency(4096, 4, 700, STD)
        assert 0 < eps <= 1

    def test_peak_matches_direct_scan(self):
        for k in (1, 2, 5):
            for variant in (STD, CLS):
                pk = peak_efficiency(100, k, variant)
                direct = max(
                    ((efficiency(100, n, k, variant), n) for n in range(1, 400)),
                    key=lambda t: (t[0], -t[1]),
                )
                assert pk.epsilon == pytest.approx(direct[0], rel=1e-12)
                assert pk.n == direct[1]

    def test_peak_scan_extends_while_the_best_sits_on_its_edge(self, monkeypatch):
        # m = 100, k = 1 opens the window at n <= 278; a peak at n = 500
        # doubles it once, to 556
        seen = []

        def rising(m, n, k, variant):
            seen.append(n)
            return -abs(n - 500)

        monkeypatch.setattr(analytics, "efficiency", rising)
        pk = peak_efficiency(100, 1, STD)
        assert (pk.n, pk.epsilon) == (500, 0)
        assert max(seen) == 556

    def test_max_efficiency_standard(self):
        pt = max_efficiency(100, STD)
        assert (pt.n, pt.k) == (69, 1)
        assert not pt.conjectured
        closed = max_efficiency_closed_form(100, STD)
        assert closed == pytest.approx(1 / (100 * math.log2(100 / 99)), rel=1e-12)
        assert pt.epsilon == pytest.approx(closed, abs=5e-3)

    def test_max_efficiency_classic_flagged(self):
        pt = max_efficiency(100, CLS)
        assert (pt.n, pt.k) == (1, 50)
        assert pt.conjectured
        closed = max_efficiency_closed_form(100, CLS)
        assert closed == pytest.approx(math.log2(math.comb(100, 50)) / 100, rel=1e-12)
        assert round(pt.epsilon, 2) == round(closed, 2)


class TestValley:
    def test_golden_ratio(self):
        x = valley_crossing(1)
        assert x == pytest.approx(math.log((1 + math.sqrt(5)) / 2), abs=1e-9)

    def test_residuals(self):
        for k in range(1, 11):
            assert valley_residual(k, valley_crossing(k)) < 1e-10

    def test_zero_is_trivial_crossing(self):
        for k in (1, 4, 9):
            assert valley_residual(k, 0.0) == 0.0


class TestShapeOfRateInK:
    def test_single_dip_then_rise(self):
        # rate over k = 1..40 at m=100, n=20 has one minimum and ends
        # far above it, for both variants
        for variant in (STD, CLS):
            rates = [fpr_exact(100, 20, k, variant) for k in range(1, 41)]
            drops = [i for i in range(len(rates) - 1) if rates[i + 1] < rates[i]]
            rises = [i for i in range(len(rates) - 1) if rates[i + 1] > rates[i]]
            assert drops and rises
            assert max(drops) < min(rises)  # strictly unimodal here
            k_star = rates.index(min(rates)) + 1
            assert rates[-1] > rates[k_star - 1]


class TestIntersectionFilterMoments:
    def test_two_single_bit_filters(self):
        mean, var = intersection_filter_moments(2, 1, [1, 1])
        assert mean == Fraction(1, 2) and var == Fraction(1, 4)

    def test_single_filter_reduces_to_classic(self):
        mean, var = intersection_filter_moments(8, 2, [3])
        cm, cv = classic_mean_variance(8, 6)
        assert mean == cm and var == cv

    def test_zero_count_factor(self):
        mean, var = intersection_filter_moments(16, 2, [0, 4])
        assert mean == 0 and var == 0

    def test_printed_variance_form_disagrees(self):
        # published display adds the squared-mean term; enumeration of two
        # independent uniform bits gives Var = 1/4, the display gives 3/4
        printed = intersection_filter_variance_printed_form(2, 1, [1, 1])
        assert printed == Fraction(3, 4)
        assert intersection_filter_moments(2, 1, [1, 1])[1] == Fraction(1, 4)

    def test_matches_exact_intersection_enumeration(self):
        # m=3, two filters with 1 and 2 items, k=1: enumerate all 3^3 fills
        from bloomlab.occupancy import CommitteeSpec

        from enumerators import enumerate_intersection_pmf, enumerate_moment

        spec = CommitteeSpec(3, [(1, 1), (2, 1)])
        pmf = enumerate_intersection_pmf(spec)
        mean, var = intersection_filter_moments(3, 1, [1, 2])
        e1 = enumerate_moment(pmf, 1, "raw")
        e2 = enumerate_moment(pmf, 2, "raw")
        assert mean == e1
        assert var == e2 - e1 * e1


class TestReport:
    def test_report_fields_consistent(self):
        rep = fpr_report(64, 4, 11, STD)
        assert rep.exact == fpr_standard_exact(64, 4, 11)
        assert rep.log2_exact == pytest.approx(math.log2(float(rep.exact)), abs=1e-9)
        assert rep.efficiency == pytest.approx(
            -(4 / 64) * rep.log2_exact, rel=1e-12
        )
        assert rep.recursive == pytest.approx(float(rep.exact), rel=1e-9)

    def test_saturated_rate_efficiency_is_positive_zero(self):
        # f = 1: -(n/m) * log2(1) would give -0.0
        rep = fpr_report(8, 1, 8, CLS)
        assert rep.exact == 1
        assert math.copysign(1.0, rep.efficiency) == 1.0
        assert rep.efficiency == efficiency(8, 1, 8, CLS)
