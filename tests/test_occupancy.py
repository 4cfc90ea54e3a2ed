import tracemalloc
from fractions import Fraction
from math import comb, perm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bloomlab import kernel, occupancy, oracle
from bloomlab.estimators import mvue_m_committee
from bloomlab.occupancy import (
    CommitteeSpec,
    MomentKind,
    classic_mean_variance,
    classic_pmf,
    classic_raw_moment,
    committee_mean_variance,
    committee_moment,
    committee_pmf,
    intersection_moment,
    intersection_pmf,
    intersection_pmf_table,
    moment_bounds,
    union_moment,
    union_pmf,
)

from enumerators import (
    enumerate_intersection_pmf,
    enumerate_moment,
    enumerate_union_pmf,
    stirling_row,
)


def nabla_binom_powers(x, departments, r):
    """r-th backward difference of prod C(t, k)^n over (n, k) in
    departments at t = x, term by term, summed over the points t = x - j >= 0
    (C(t, k) is 0 below). At x = r this is the forward difference Delta^r
    at 0."""
    total = 0
    for j in range(min(r, x) + 1):
        term = comb(r, j)
        for n, k in departments:
            term *= comb(x - j, k) ** n
        total += -term if j & 1 else term
    return total


def committee_variance_printed_form(m, n, k):
    """The committee-variance expression as printed in the source lemma;
    the paper's erratum, kept for comparison with committee_mean_variance."""
    p = Fraction(m - k, m) ** n
    filled = 1 - p
    return m * filled * (1 - m * filled + (m - 1) * Fraction(m - 1 - k, m - 1) ** n)


class TestClassicPmf:
    def test_examples(self):
        assert classic_pmf(5, 1, 1) == 1
        assert classic_pmf(2, 2, 1) == Fraction(1, 2)
        assert classic_pmf(2, 2, 2) == Fraction(1, 2)

    def test_degenerate_no_balls(self):
        assert classic_pmf(4, 0, 0) == 1
        assert all(classic_pmf(4, 0, i) == 0 for i in range(1, 5))

    def test_out_of_support(self):
        assert classic_pmf(3, 2, -1) == 0
        assert classic_pmf(3, 2, 4) == 0
        assert classic_pmf(3, 1, 2) == 0

    @given(m=st.integers(1, 6), n=st.integers(0, 8))
    @settings(max_examples=40, deadline=None)
    def test_matches_enumeration(self, m, n):
        expect = oracle.enumerate_classic_pmf(m, n)
        for i in range(m + 1):
            assert classic_pmf(m, n, i) == expect[i]

    @given(m=st.integers(1, 10), n=st.integers(0, 10))
    @settings(max_examples=50, deadline=None)
    def test_single_ball_recurrence(self, m, n):
        for i in range(m):
            lhs = classic_pmf(m, n + 1, i + 1)
            rhs = Fraction(m - i, m) * classic_pmf(m, n, i) + Fraction(
                i + 1, m
            ) * classic_pmf(m, n, i + 1)
            assert lhs == rhs

    def test_is_the_batch_row_in_stirling_form(self, monkeypatch):
        # S(n,i) m_(i) / m^n, read from the committee row at k = 1 without
        # calling any Stirling function
        def refuse(n, i):
            raise AssertionError("classic_pmf called stirling2")

        monkeypatch.setattr(kernel, "stirling2", refuse)
        monkeypatch.setattr(occupancy, "stirling2", refuse)
        for m in range(1, 13):
            for n in range(31):
                stirling = stirling_row(n)
                for i in range(-1, m + 2):
                    s = stirling[i] if 0 <= i <= min(n, m) else 0
                    want = Fraction(s * perm(m, i), m**n) if s else 0
                    got = classic_pmf(m, n, i)
                    assert got == want == committee_pmf(m, n, 1, i), (m, n, i)

    def test_row_memory_is_bounded(self):
        # one row for (64, 1000): 65 fractions of under 6,000 bits each, and
        # nothing kept for the n' < 1000 on the way
        occupancy._batch_pmf_row.cache_clear()
        tracemalloc.start()
        try:
            classic_pmf(64, 1000, 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak


class TestClassicMoments:
    def test_examples(self):
        assert classic_raw_moment(2, 2, 0) == 1
        assert classic_raw_moment(2, 2, 1) == Fraction(3, 2)
        assert classic_raw_moment(2, 2, 2) == Fraction(5, 2)

    def test_inputs_checked(self):
        # checked before the empty-urn sum, as classic_mean_variance does
        for m, n in [(0, 1), (-2, 3), (4, -1)]:
            with pytest.raises(ValueError, match="m >= 1 and n >= 0"):
                classic_raw_moment(m, n, 1)

    def test_mean_variance_examples(self):
        assert classic_mean_variance(6, 0) == (0, 0)
        assert classic_mean_variance(2, 2) == (Fraction(3, 2), Fraction(1, 4))
        assert classic_mean_variance(9, 1) == (1, 0)

    @given(m=st.integers(1, 8), n=st.integers(0, 8))
    @settings(max_examples=40, deadline=None)
    def test_closed_forms_agree_with_moments(self, m, n):
        mean, var = classic_mean_variance(m, n)
        m1 = classic_raw_moment(m, n, 1)
        m2 = classic_raw_moment(m, n, 2)
        assert mean == m1
        assert var == m2 - m1 * m1

    @given(m=st.integers(2, 8), n=st.integers(0, 8), r=st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_moment_recurrence_in_m(self, m, n, r):
        lhs = classic_raw_moment(m, n, r)
        rhs = Fraction(1, m) * classic_raw_moment(m, n, r + 1) + Fraction(
            m - 1, m
        ) ** n * classic_raw_moment(m - 1, n, r)
        assert lhs == rhs

    def test_dual_form_edges_match_enumeration(self):
        # no balls (X = 0, and the j = m term is 0^0 = 1) and the zeroth
        # moment, with orders past m
        for m in range(1, 7):
            for n in range(0, 7):
                pmf = oracle.enumerate_classic_pmf(m, n)
                orders = range(0, 9) if n == 0 else [0]
                for r in orders:
                    want = enumerate_moment(pmf, r, "raw")
                    assert classic_raw_moment(m, n, r) == want, (m, n, r)

    @given(m=st.integers(1, 6), n=st.integers(0, 6), r=st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_matches_enumeration(self, m, n, r):
        pmf = oracle.enumerate_classic_pmf(m, n)
        assert classic_raw_moment(m, n, r) == enumerate_moment(pmf, r, "raw")


class TestCommitteePmf:
    def test_examples(self):
        assert committee_pmf(5, 2, 3, 4) == Fraction(3, 5)
        assert committee_pmf(5, 2, 3, 3) == Fraction(1, 10)
        assert committee_pmf(7, 1, 4, 4) == 1

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_enumeration(self, data):
        m = data.draw(st.integers(1, 6))
        k = data.draw(st.integers(1, m))
        n = data.draw(st.integers(0, max(1, 8 // k)))
        expect = oracle.enumerate_committee_pmf(m, n, k)
        for i in range(m + 1):
            assert committee_pmf(m, n, k, i) == expect[i]
        for r in range(m + 2):
            for kind in MomentKind:
                assert committee_moment(m, n, k, r, kind) == (
                    enumerate_moment(expect, r, kind.value)
                ), (m, n, k, r, kind)


    def test_row_matches_per_count_difference(self):
        # the law is read from one forward-difference table; each entry must
        # equal the direct i-term sum C(m,i) nabla^i[C(x,k)^n]_i / C(m,k)^n,
        # including the counts above n*k, which are exactly 0
        for m, n, k in [(1, 3, 1), (9, 0, 2), (12, 2, 5), (30, 4, 3), (64, 9, 7)]:
            for i in range(-1, m + 2):
                if 0 <= i <= m:
                    want = Fraction(
                        comb(m, i) * nabla_binom_powers(i, [(n, k)], i),
                        comb(m, k) ** n,
                    )
                else:
                    want = 0
                assert committee_pmf(m, n, k, i) == want, (m, n, k, i)
        spec = CommitteeSpec(40, [(3, 2), (5, 4), (2, 1)])
        for i in range(41):
            want = Fraction(
                comb(40, i) * nabla_binom_powers(i, [(3, 2), (5, 4), (2, 1)], i),
                comb(40, 2) ** 3 * comb(40, 4) ** 5 * comb(40, 1) ** 2,
            )
            assert union_pmf(spec, i) == want, i


class TestBelowBatchSize:
    def test_pmfs_vanish_below_batch_size(self):
        # Delta^i f(0) is taken as nabla^i f(i), a point below k when i < k
        for m in range(1, 7):
            for k in range(1, m + 1):
                for n in range(1, 4):
                    for i in range(k):
                        assert committee_pmf(m, n, k, i) == 0
                    assert committee_pmf(m, n, k, k) == Fraction(1, comb(m, k) ** (n - 1))
        spec = CommitteeSpec(6, [(2, 3), (1, 4)])
        expect = enumerate_union_pmf(spec)
        for i in range(7):
            assert union_pmf(spec, i) == expect[i]
        assert [union_pmf(spec, i) for i in range(4)] == [0, 0, 0, 0]

    def test_mvue_at_batch_size(self):
        # mu = k: the lower difference sits at k - 1, where C(x,k)^n is 0
        for k in range(1, 6):
            for n in range(1, 4):
                assert mvue_m_committee(k, n, k) == k

    def test_mvue_matches_term_by_term_differences(self):
        # m_hat = mu (1 + Delta^(mu-1) f(0) / Delta^mu f(0)), f = C(x,k)^n;
        # Delta^mu f(0) counts covering tuples, so it never vanishes here
        for k in range(1, 6):
            for n in range(1, 6):
                for mu in range(k, n * k + 1):
                    d_hi = nabla_binom_powers(mu, [(n, k)], mu)
                    assert d_hi > 0, (mu, n, k)
                    d_lo = nabla_binom_powers(mu - 1, [(n, k)], mu - 1)
                    want = mu * (1 + Fraction(d_lo, d_hi))
                    assert mvue_m_committee(mu, n, k) == want, (mu, n, k)
                for mu in (k - 1, n * k + 1):
                    with pytest.raises(ValueError):
                        mvue_m_committee(mu, n, k)


class TestCommitteeMoments:
    def test_examples(self):
        assert committee_moment(5, 2, 3, 1, MomentKind.RAW) == Fraction(21, 5)
        assert committee_moment(5, 2, 3, 5, MomentKind.BINOMIAL) == Fraction(3, 10)
        assert committee_moment(6, 2, 2, 0, MomentKind.FACTORIAL) == 1

    def test_first_moment_closed_form(self):
        for m in range(2, 10):
            for k in range(1, m + 1):
                for n in range(0, 5):
                    expect = m * (1 - Fraction(m - k, m) ** n)
                    assert committee_moment(m, n, k, 1, MomentKind.RAW) == expect

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_kind_interconversion(self, data):
        m = data.draw(st.integers(1, 8))
        k = data.draw(st.integers(1, m))
        n = data.draw(st.integers(0, 3))
        r = data.draw(st.integers(0, 6))
        from math import factorial

        from bloomlab.kernel import stirling2

        binom = committee_moment(m, n, k, r, MomentKind.BINOMIAL)
        fact = committee_moment(m, n, k, r, MomentKind.FACTORIAL)
        raw = committee_moment(m, n, k, r, MomentKind.RAW)
        assert fact == binom * factorial(r)
        assert raw == sum(
            stirling2(r, i) * committee_moment(m, n, k, i, MomentKind.FACTORIAL)
            for i in range(r + 1)
        )

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_equals_single_department_union(self, data):
        m = data.draw(st.integers(1, 9))
        k = data.draw(st.integers(1, m))
        n = data.draw(st.integers(1, 4))
        r = data.draw(st.integers(0, m + 1))
        spec = CommitteeSpec(m, [(n, k)])
        for kind in MomentKind:
            assert committee_moment(m, n, k, r, kind) == union_moment(spec, r, kind)

    def test_mean_variance(self):
        assert committee_mean_variance(9, 1, 4) == (4, 0)
        assert committee_mean_variance(5, 2, 3) == (Fraction(21, 5), Fraction(9, 25))
        assert committee_mean_variance(7, 0, 3) == (0, 0)

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_variance_matches_enumeration(self, data):
        m = data.draw(st.integers(2, 6))
        k = data.draw(st.integers(1, m))
        n = data.draw(st.integers(0, max(1, 6 // k)))
        pmf = oracle.enumerate_committee_pmf(m, n, k)
        mean, var = committee_mean_variance(m, n, k)
        e1 = enumerate_moment(pmf, 1, "raw")
        e2 = enumerate_moment(pmf, 2, "raw")
        assert mean == e1
        assert var == e2 - e1 * e1

    def test_printed_variance_form_disagrees(self):
        # The transcribed lemma expression is not a variance at (5, 2, 3):
        # the exact value is 9/25 but the printed form is negative. Kept as
        # a report, not a correction.
        printed = committee_variance_printed_form(5, 2, 3)
        exact = committee_mean_variance(5, 2, 3)[1]
        assert exact == Fraction(9, 25)
        assert printed != exact
        assert printed < 0


class TestUnion:
    def test_single_department_reduces_to_committee(self):
        spec = CommitteeSpec(5, [(2, 3)])
        for i in range(6):
            assert union_pmf(spec, i) == committee_pmf(5, 2, 3, i)

    def test_mean_example(self):
        spec = CommitteeSpec(4, [(1, 2), (1, 2)])
        assert union_moment(spec, 1, MomentKind.BINOMIAL) == 3

    def test_out_of_range_is_zero(self):
        spec = CommitteeSpec(4, [(1, 2)])
        assert union_pmf(spec, 5) == 0
        assert union_pmf(spec, -1) == 0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CommitteeSpec(4, [(0, 2)])
        with pytest.raises(ValueError):
            CommitteeSpec(4, [(1, 5)])
        with pytest.raises(ValueError):
            CommitteeSpec(4, [])

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_enumeration(self, data):
        spec = _draw_spec(data, max_m=5, max_total=7)
        expect = enumerate_union_pmf(spec)
        for i in range(spec.m + 1):
            assert union_pmf(spec, i) == expect[i]
        for r in range(spec.m + 2):
            for kind in MomentKind:
                assert union_moment(spec, r, kind) == (
                    enumerate_moment(expect, r, kind.value)
                ), (spec, r, kind)


class TestIntersection:
    def test_examples(self):
        spec = CommitteeSpec(4, [(1, 2), (1, 2)])
        assert intersection_moment(spec, 1) == 1
        two_singles = CommitteeSpec(2, [(1, 1), (1, 1)])
        assert intersection_moment(two_singles, 1) == Fraction(1, 2)
        assert intersection_moment(two_singles, 0) == 1
        assert intersection_pmf(two_singles, 1) == Fraction(1, 2)
        assert intersection_pmf(two_singles, 0) == Fraction(1, 2)

    def test_single_department_reduces_to_committee(self):
        spec = CommitteeSpec(5, [(2, 2)])
        for i in range(6):
            assert intersection_pmf(spec, i) == committee_pmf(5, 2, 2, i)

    def test_single_batch_fast_path_equals_general(self):
        spec = CommitteeSpec(6, [(1, 2), (1, 3), (1, 4)])
        for r in range(0, 7):
            direct = Fraction(
                comb(2, r) * comb(3, r) * comb(4, r), comb(6, r) ** 2
            ) if r <= 2 else Fraction(0)
            assert intersection_moment(spec, r) == direct

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_enumeration(self, data):
        spec = _draw_spec(data, max_m=5, max_total=7)
        expect = enumerate_intersection_pmf(spec)
        table = intersection_pmf_table(spec)
        assert table == expect
        for r in range(0, 4):
            assert intersection_moment(spec, r) == (
                enumerate_moment(expect, r, "binomial")
            )

    def test_pmf_sweep_builds_one_table(self, monkeypatch):
        spec = CommitteeSpec(9, [(3, 2), (2, 4)])
        occupancy._intersection_pmf_row.cache_clear()
        rows = []
        real = occupancy._difference_row
        monkeypatch.setattr(
            occupancy, "_difference_row", lambda vals: rows.append(1) or real(vals)
        )
        pmf = [intersection_pmf(spec, i) for i in range(spec.m + 1)]
        # one table: a difference row per department and one for the joint
        assert len(rows) == len(spec.departments) + 1
        assert pmf == enumerate_intersection_pmf(spec)
        table = intersection_pmf_table(spec)
        table[0] = None  # a fresh list each call: the cached row is untouched
        assert intersection_pmf_table(spec) == pmf
        assert len(rows) == len(spec.departments) + 1

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_complement_duality(self, data):
        m = data.draw(st.integers(2, 8))
        c = data.draw(st.integers(1, 3))
        sizes = [data.draw(st.integers(1, m - 1)) for _ in range(c)]
        spec = CommitteeSpec(m, [(1, k) for k in sizes])
        comp = CommitteeSpec(m, [(1, m - k) for k in sizes])
        table = intersection_pmf_table(spec)
        for i in range(m + 1):
            assert table[i] == union_pmf(comp, m - i)


def _draw_spec(data, max_m: int, max_total: int) -> CommitteeSpec:
    m = data.draw(st.integers(1, max_m))
    c = data.draw(st.integers(1, 3))
    departments = []
    budget = max_total
    for _ in range(c):
        k_d = data.draw(st.integers(1, min(m, max(1, budget))))
        n_d = data.draw(st.integers(1, max(1, budget // k_d)))
        departments.append((n_d, k_d))
        budget -= n_d * k_d
        if budget < 1:
            break
    return CommitteeSpec(m, departments)


class TestNormalization:
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_all_families_sum_to_one(self, data):
        m = data.draw(st.integers(1, 12))
        n = data.draw(st.integers(0, 12))
        assert sum(classic_pmf(m, n, i) for i in range(m + 1)) == 1
        k = data.draw(st.integers(1, m))
        nk = data.draw(st.integers(0, max(1, 12 // k)))
        assert sum(committee_pmf(m, nk, k, i) for i in range(m + 1)) == 1
        spec = _draw_spec(data, max_m=7, max_total=9)
        assert sum(union_pmf(spec, i) for i in range(spec.m + 1)) == 1
        assert sum(intersection_pmf_table(spec)) == 1


class TestMomentBounds:
    def test_rejects_out_of_regime(self):
        with pytest.raises(ValueError):
            moment_bounds(5, 2, 3, 3)
        moment_bounds(5, 2, 3, 2)

    def test_trivial_r0(self):
        assert moment_bounds(7, 3, 2, 0) == (1, 1, 1)

    def test_worked_example(self):
        lower, jensen, upper = moment_bounds(10, 2, 3, 2)
        assert lower == Fraction(10**6 - 2 * 9**6 + 8**6, 10**6)
        assert upper == Fraction(51, 100) ** 2
        middle = committee_moment(10, 2, 3, 2, MomentKind.BINOMIAL) / comb(10, 2)
        assert lower <= jensen <= middle <= upper

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_sandwich(self, data):
        m = data.draw(st.integers(2, 20))
        k = data.draw(st.integers(1, m - 1))
        n = data.draw(st.integers(0, 8))
        r = data.draw(st.integers(0, min(k, m - k)))
        lower, jensen, upper = moment_bounds(m, n, k, r)
        middle = committee_moment(m, n, k, r, MomentKind.BINOMIAL) / comb(m, r)
        assert lower <= jensen <= middle <= upper
