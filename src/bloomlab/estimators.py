"""Parameter estimation for occupancy models.

estimate_n inverts the mean-occupancy formula to recover the batch count
from an observed occupancy (a filter's bit sum); the mvue_* functions are
the published "MVUE"s of the urn count m from a tagged sample. After n
batches of size k their bias is -m_(nk+1) / (m_(k))^n, zero only where
m <= nk (mvue_m_committee; mvue_m_classic is its k = 1 case).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .kernel import Scalar, _exact_cover_counts

__all__ = [
    "SaturationError",
    "UnsupportedObservationError",
    "estimate_n",
    "mvue_m_committee",
    "mvue_m_classic",
]


class SaturationError(ValueError):
    """Observed occupancy equals the urn count; the estimator diverges."""


class UnsupportedObservationError(ValueError):
    """The observation cannot occur under the model (estimate_n at k = m)."""


def estimate_n(m: int, k: int, mu: Scalar) -> float:
    """Method-of-moments / ML estimate of the batch count from occupancy mu.

        n_hat = ln(1 - mu/m) / ln(1 - k/m)

    The log arguments are formed as exact rationals first; mu/m near 1 is
    the sensitive regime and must not lose bits before the log.
    """
    if not 1 <= k <= m:
        raise ValueError("estimate_n requires 1 <= k <= m")
    if mu < 0:
        raise ValueError("occupancy cannot be negative")
    if mu > m:
        raise ValueError("occupancy cannot exceed the urn count")
    if mu == m:
        raise SaturationError("occupancy equals m; the estimate diverges")
    if mu == 0:
        return 0.0
    if k == m:
        # a single batch already fills every urn, so 0 < mu < m cannot occur
        raise UnsupportedObservationError(
            "occupancy strictly between 0 and m is impossible when k = m"
        )
    top = 1 - Fraction(mu) / m
    bot = Fraction(m - k, m)
    return math.log(top) / math.log(bot)


def mvue_m_committee(mu: int, n: int, k: int) -> Fraction:
    """The published MVUE for the urn count given occupancy mu after n
    batches of size k, m_hat = mu (1 + c_(mu-1) / c_mu) with the cover counts
    c_i = Delta^i[C(x,k)^n]_0. E[m_hat] = m - m_(nk+1) / (m_(k))^n, x_(r)
    falling: mu c_(mu-1) / c_mu has mean m / C(m,k)^n times Newton's series
    for C(m-1,k)^n less its y = nk term, so m_hat is unbiased iff m <= nk.
    """
    if n < 1 or k < 1:
        raise ValueError("mvue_m_committee requires n >= 1 and k >= 1")
    if not k <= mu <= n * k:
        raise ValueError("occupancy must lie in [k, n*k]")
    # c[mu] counts the n-tuples of k-subsets covering a mu-set: positive
    c = _exact_cover_counts(((n, k),), mu)
    return mu * (1 + Fraction(c[mu - 1], c[mu]))


def mvue_m_classic(mu: int, n: int) -> Fraction:
    """MVUE for the urn count in the classic model, given occupancy mu.

    Classic occupancy is batch occupancy with k = 1, so this is
    mvue_m_committee(mu, n, 1) = mu + S(n, mu-1) / S(n, mu). The two
    published branches (m > n and m <= n) are the same value: the Stirling
    recurrence S(n+1, mu) = mu S(n, mu) + S(n, mu-1) turns the second,
    S(n+1, mu) / S(n, mu), into the first.
    """
    if n < 1:
        raise ValueError("mvue_m_classic requires n >= 1")
    if not 1 <= mu <= n:
        raise ValueError("occupancy must lie in [1, n]")
    return mvue_m_committee(mu, n, 1)
