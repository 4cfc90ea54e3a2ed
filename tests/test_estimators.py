import random
from fractions import Fraction

import pytest

from bloomlab.estimators import (
    SaturationError,
    UnsupportedObservationError,
    estimate_n,
    mvue_m_classic,
    mvue_m_committee,
)
from bloomlab.kernel import falling_factorial, stirling2
from bloomlab.occupancy import classic_pmf, committee_mean_variance, committee_pmf


class TestEstimateN:
    def test_inverts_exact_mean(self):
        assert estimate_n(5, 3, Fraction(21, 5)) == pytest.approx(2.0, abs=1e-12)

    def test_zero_occupancy(self):
        assert estimate_n(64, 4, 0) == 0.0

    def test_documented_value(self):
        import math

        expect = math.log(0.9) / math.log(0.99)
        est = estimate_n(100, 1, 10)
        assert est == pytest.approx(expect, rel=1e-12)
        assert est == pytest.approx(10.48333, abs=5e-5)
        # and the mean formula at the estimate lands back on the observation
        mean = 100 * -math.expm1(est * math.log1p(-1 / 100))
        assert mean == pytest.approx(10.0, abs=0.01)

    def test_saturation_and_domain_errors(self):
        with pytest.raises(SaturationError):
            estimate_n(8, 2, 8)
        with pytest.raises(ValueError):
            estimate_n(8, 2, 9)
        # one batch of k = m fills every urn, so 0 < mu < m cannot occur
        with pytest.raises(UnsupportedObservationError):
            estimate_n(8, 8, 3)

    def test_exact_inverse_over_parameter_sweep(self):
        rng = random.Random(7)
        for _ in range(200):
            m = rng.randint(2, 200)
            k = rng.randint(1, max(1, m - 1))
            n = rng.randint(1, 50)
            mean = m * (1 - Fraction(m - k, m) ** n)
            assert abs(estimate_n(m, k, mean) - n) < 1e-9

    def test_strictly_increasing_in_mu(self):
        last = -1.0
        for mu_tenths in range(0, 320, 7):
            est = estimate_n(32, 3, Fraction(mu_tenths, 10))
            assert est > last
            last = est


class TestCommitteeMvue:
    def test_examples(self):
        assert mvue_m_committee(3, 2, 3) == 3
        assert mvue_m_committee(4, 2, 3) == Fraction(13, 3)
        assert mvue_m_committee(4, 1, 4) == 4

    def test_unsupported_observation(self):
        # mu = k with n >= 2 batches has Delta^mu = 0 iff ... pick a case
        # where the leading difference vanishes: occupancy below k is
        # impossible, so mu < k is rejected by the precondition instead.
        with pytest.raises(ValueError):
            mvue_m_committee(2, 2, 3)

    def test_estimator_is_exact_rational(self):
        v1 = mvue_m_committee(5, 2, 3)
        v2 = mvue_m_committee(5, 2, 3)
        assert isinstance(v1, Fraction) and v1 == v2

    def test_bias_closed_form(self):
        # E[m_hat] = m - m_(nk+1) / (m_(k))^n over every cell of k <= 4,
        # n <= 5, nk <= 14, k <= m <= 15; unbiased exactly where m <= nk
        cells = 0
        for k in range(1, 5):
            for n in range(1, 6):
                if n * k > 14:
                    continue
                for m in range(k, 16):
                    mean = sum(
                        committee_pmf(m, n, k, mu) * mvue_m_committee(mu, n, k)
                        for mu in range(k, min(n * k, m) + 1)
                    )
                    bias = Fraction(
                        falling_factorial(m, n * k + 1), falling_factorial(m, k) ** n
                    )
                    assert mean == m - bias, (m, n, k)
                    assert (mean == m) == (m <= n * k), (m, n, k)
                    cells += 1
        assert cells == 233
        # the classic form at (m, n) = (3, 2): E = 7/3
        mean = sum(classic_pmf(3, 2, mu) * mvue_m_classic(mu, 2) for mu in (1, 2))
        assert mean == Fraction(7, 3)


class TestClassicMvue:
    def test_examples(self):
        assert mvue_m_classic(2, 2) == 3
        assert mvue_m_classic(1, 5) == 1
        assert mvue_m_classic(2, 3) == Fraction(7, 3)

    def test_rejects_invalid_occupancy(self):
        with pytest.raises(ValueError):
            mvue_m_classic(0, 3)
        with pytest.raises(ValueError):
            mvue_m_classic(4, 3)

    def test_equals_both_published_forms_and_committee_at_k1(self):
        # m > n: mu + S(n, mu-1)/S(n, mu); m <= n: S(n+1, mu)/S(n, mu);
        # equal by S(n+1, mu) = mu S(n, mu) + S(n, mu-1)
        for n in range(1, 41):
            for mu in range(1, n + 1):
                got = mvue_m_classic(mu, n)
                denom = stirling2(n, mu)
                assert got == mu + Fraction(stirling2(n, mu - 1), denom), (mu, n)
                assert got == Fraction(stirling2(n + 1, mu), denom), (mu, n)
                assert got == mvue_m_committee(mu, n, 1), (mu, n)


class TestCrossChecks:
    def test_estimate_n_round_trip_against_variance(self):
        # the estimate at mu = mean +/- sigma brackets the true n
        m, n, k = 128, 10, 4
        mean, var = committee_mean_variance(m, n, k)
        sigma = float(var) ** 0.5
        lo = estimate_n(m, k, float(mean) - sigma)
        hi = estimate_n(m, k, float(mean) + sigma)
        assert lo < n < hi
