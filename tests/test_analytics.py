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
            if exact >= Fraction(1, 10**12):
                approx = fpr_recursive(m, n, k, variant)
                assert abs(approx - float(exact)) <= 5e-7 * float(exact)

    @staticmethod
    def _classic_per_level(m, n, k):
        """The classic recursion with its weight (1 - k/t)^n taken afresh at
        every level i and urn count t, in the same 40-digit context."""
        if n == 0:
            return 0.0
        with localcontext() as ctx:
            ctx.prec = 40

            def weight(i, t):
                return (Decimal(t - k) / Decimal(t)) ** n

            return float(kernel.two_term_recursion(k, m, k, weight, Decimal(1)))

    def test_classic_bit_identical_to_per_level_weights(self):
        cells = [
            (m, n, k) for m in range(1, 41) for n in range(7) for k in range(1, m + 1)
        ]
        for m, n, k in cells + [(1024, 5, 133)]:
            got = fpr_recursive(m, n, k, CLS)
            assert got == self._classic_per_level(m, n, k), (m, n, k)


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
    """The bits per factor optimal_k asks of its bracket at k (at m = 1 the
    scan brackets nothing, since k = 1 is the seed; f = 1 there)."""
    bound = analytics._fpr_lower_bound_log2(m, n, k, variant) if m > 1 else 0.0
    return k + math.ceil(-bound) + analytics._GUARD_BITS


def rate_brackets(m, n, variant, ks, q=None):
    """(k, lo, hi) from optimal_k's bracket for each k of ks, in order, at
    the scan's q or at a fixed q."""
    if variant is STD:
        bracket = analytics._standard_rate_steps(m, n)
    else:
        bracket = partial(analytics._classic_rate_bracket, m, n)
    for k in ks:
        yield (k, *bracket(k, scan_q(m, n, k, variant) if q is None else q))


class TestRateBrackets:
    def test_brackets_hold_the_exact_rate(self):
        # every k at m <= 40, n <= 6, and deep cuts at the paper's optimum
        # and at a low load; the width stays under 2^-40 of the rate
        cells = [(m, n, range(1, m + 1)) for m in range(1, 41) for n in range(1, 7)]
        cells += [(1024, 5, range(120, 146)), (256, 1, [138])]
        cut = 0
        for m, n, ks in cells:
            for variant in (STD, CLS):
                for k, lo, hi in rate_brackets(m, n, variant, ks):
                    exact = fpr_exact(m, n, k, variant)
                    assert lo <= exact <= hi, (m, n, k, variant)
                    assert hi - lo <= exact / 2**40, (m, n, k, variant)
                    cut += lo < hi
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
                lo, hi = analytics._rate_bracket(coeffs, bases, e, den, q)
                f = Fraction(kernel._alternating_power_sum(coeffs, bases, e), den)
                assert lo <= f <= hi, (e, q, size, slope, ends)
                # den is S = (sum a) b_0^e: at most 2^(2-q) wide, plus rounding
                assert 0 < hi - lo <= Fraction(5, 2**q), (e, q, size, slope, ends)

    def test_untruncated_bracket_is_the_exact_rate(self):
        # more bits asked than any factor has: nothing is cut
        for m, n in [(1, 1), (9, 2), (40, 6), (256, 1)]:
            for variant in (STD, CLS):
                ks = range(1, m + 1, max(1, m // 17))
                for k, lo, hi in rate_brackets(m, n, variant, ks, q=10**6):
                    assert lo == hi == fpr_exact(m, n, k, variant), (m, n, k, variant)

    def test_scan_is_unchanged_by_wide_brackets(self, monkeypatch):
        # 63 guard bits fewer make the brackets wider than the rates, so
        # most comparisons fall back to exact rates; the result may not move
        grid = [(96, 3, STD), (128, 2, STD), (256, 2, STD), (512, 8, STD)]
        grid += [(512, 8, CLS), (700, 10, CLS), (1000, 20, CLS)]
        want = {(m, n, v): optimal_k(m, n, v) for m, n, v in grid}
        calls = []

        def counted(m, n, k, variant):
            calls.append(k)
            return fpr_exact(m, n, k, variant)

        monkeypatch.setattr(analytics, "_GUARD_BITS", analytics._GUARD_BITS - 63)
        monkeypatch.setattr(analytics, "fpr_exact", counted)
        for (m, n, v), best in want.items():
            calls.clear()
            assert optimal_k(m, n, v) == best, (m, n, v)
            assert len(calls) > 2, (m, n, v)

    def test_touching_brackets_tie_toward_smaller_k(self, monkeypatch):
        # f(255, 1, 127) == f(255, 1, 128); brackets [f, f + t] at odd k and
        # [f - t, f] at even k touch at f, so only the exact rates decide
        def touching(m, n, k, q):
            f = fpr_classic_exact(m, n, k)
            t = f / 2**50
            return (f, f + t) if k % 2 else (f - t, f)

        monkeypatch.setattr(analytics, "_classic_rate_bracket", touching)
        assert optimal_k(255, 1, CLS) == (127, fpr_classic_exact(255, 1, 127))


class TestOptimalK:
    def test_exact_mode_matches_unpruned_scan(self, monkeypatch):
        # the standard scan stops early at n >= 2 on m = 96, 128 (before m/2
        # from n = 3; at k = 53 and 70 for n = 2); at m/n < 0.7 ((16, 40),
        # (32, 60)) it evaluates every k back to back
        bound, bound_ks = analytics._fpr_lower_bound_log2, []

        def traced_bound(m, n, k, variant):
            bound_ks.append(k)
            return bound(m, n, k, variant)

        monkeypatch.setattr(analytics, "_fpr_lower_bound_log2", traced_bound)
        grid = [(m, n) for m in (8, 17, 33, 64) for n in (1, 2, 5, 9)]
        grid += [(m, n) for m in (96, 128) for n in (1, 2, 3, 24)]
        grid += [(16, 40), (32, 60)]
        # low loads, where the brackets cut most of every term
        grid += [(256, 1), (256, 2)]
        oracle_rate = {STD: fpr_standard_stirling, CLS: fpr_classic_direct}
        for m, n in grid:
            for variant in (STD, CLS):
                bound_ks.clear()
                best = optimal_k(m, n, variant)
                brute = min(
                    ((oracle_rate[variant](m, n, k), k) for k in range(1, m + 1)),
                    key=lambda t: (t[0], t[1]),
                )
                assert (best.fpr, best.k) == brute, (m, n, variant)
                if m >= 96 and n > 1 and variant is STD:
                    assert max(bound_ks) < (m // 2 if n > 2 else m)

    def test_stepped_rates_match_stirling_form(self):
        # consecutive k step the powers; gaps and the first call take them
        # afresh; m = 1 and k = m cover the capped coefficient row. Asked
        # for more bits than any factor has, the stepped bracket is the
        # exact rate; at the scan's q it holds it
        for m, n in [(1, 1), (2, 3), (7, 1), (7, 4), (20, 2), (33, 5), (64, 2)]:
            for ks in (range(1, m + 1), range(1, m + 1, 3), [m]):
                exact = analytics._standard_rate_steps(m, n)
                scan = analytics._standard_rate_steps(m, n)
                for k in ks:
                    want = fpr_standard_stirling(m, n, k)
                    assert exact(k, 10**6) == (want, want), (m, n, k)
                    lo, hi = scan(k, scan_q(m, n, k, STD))
                    assert lo <= want <= hi, (m, n, k)

    def test_dual_coefficient_rows_match_nabla_power(self):
        # A(k, j) = C(m,j) nabla^j[x^k]_m, including m < k
        for m in range(1, 41):
            rows = analytics._dual_coefficient_rows(m)
            for k in range(41):
                row = next(rows)
                assert row == [
                    math.comb(m, j) * nabla_power(m, k, j)
                    for j in range(min(k, m) + 1)
                ], (m, k)

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

    def test_ties_break_toward_smaller_k(self):
        best = optimal_k(255, 1, CLS)
        assert best.k == 127
        assert fpr_classic_exact(255, 1, 128) == best.fpr

    def test_estimate_mode(self):
        est = optimal_k_estimate(64, 4)
        assert est.k == pytest.approx(16 * math.log(2), rel=1e-12)
        assert est.fpr == pytest.approx(0.5**est.k, rel=1e-12)
        with pytest.raises(ValueError):
            optimal_k_estimate(64, 0)

    def test_zero_items(self):
        assert optimal_k(32, 0, STD) == (1, 0)


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

    def test_probe_matches_unpruned_minimum(self):
        # every m <= 24 and n <= 2m, m = 1 and the high loads where nothing
        # prunes included; targets at the minimum (a tie meets it), a
        # hair either side, and spread over the rates the grid reaches
        spread = [Fraction(10 ** (-i / 4)) for i in range(1, 25)]
        for variant in (STD, CLS):
            for m in range(1, 25):
                for n in range(1, 2 * m + 1):
                    best = min(fpr_exact(m, n, k, variant) for k in range(1, m + 1))
                    hair = best / 2**200
                    for target in [best, best - hair, best + hair, *spread]:
                        got = analytics._rate_at_most(m, n, variant, target)
                        assert got == (best <= target), (m, n, variant, target)

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
