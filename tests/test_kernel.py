import fractions
import importlib.util
import math
import sys
import threading
import types
from enum import Enum
from fractions import Fraction
from math import comb
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bloomlab import kernel, oracle
from bloomlab.analytics import fpr_classic_exact
from bloomlab.kernel import (
    _alternating_power_sum,
    _Certified,
    _exact_cover_counts,
    _lowest_terms,
    binom_poly,
    falling_factorial,
    log2_fraction,
    nabla_power,
    nabla_power_row,
    rho,
    stirling2,
)
from bloomlab.occupancy import CommitteeSpec
from enumerators import enumerate_union_pmf


class DifferenceKind(Enum):
    """Direction of a finite-difference operator.

    The two are conjugate: the i-th forward difference at a equals the
    i-th backward difference at a+i.
    """

    BACKWARD = "backward"
    FORWARD = "forward"


def difference(f, kind, order, at):
    """Apply an order-th forward or backward difference of f at a point.

    Generic (and O(2^order) naive in f evaluations via the binomial
    expansion); meant for cross-checking identities, not hot paths.
    """
    if order < 0:
        raise ValueError("difference order must be >= 0")
    total = 0
    if kind is DifferenceKind.BACKWARD:
        for j in range(order + 1):
            total += (-1) ** j * comb(order, j) * f(at - j)
    else:
        for j in range(order + 1):
            total += (-1) ** (order - j) * comb(order, j) * f(at + j)
    return total


def binom_product_difference(m, departments, r):
    """r-th backward difference of prod C(x, k)^n at x = m, read off rho
    as rho(r, m, departments) * prod C(m, k)^n; always an integer."""
    value = rho(r, m, departments) * math.prod(comb(m, k) ** n for n, k in departments)
    assert value.denominator == 1, (m, departments, r)
    return value.numerator


def rho_by_recursion(r, s, departments):
    """rho(r, s, departments) from the two-term recursion
    g(i, t) = g(i-1, t) - w_t g(i-1, t-1), w_t = prod ((t - k)/t)^n, with
    g(0, t) = 1 for t >= low = max k and g(i, t) = 0 for t < low; exact in
    Fraction. level[j] holds g(i, s - j); urn counts t <= low take no step."""
    low = max(k for _, k in departments)
    level = [Fraction(int(s - j >= low)) for j in range(r + 1)]
    for i in range(1, r + 1):
        for j in range(min(r + 1 - i, s - low)):
            w = math.prod(Fraction(s - j - k, s - j) ** n for n, k in departments)
            level[j] -= w * level[j + 1]
    return level[0]


class TestStirling:
    def test_base_cases(self):
        assert stirling2(0, 0) == 1
        assert stirling2(3, 0) == 0
        assert stirling2(2, 5) == 0
        for n in range(1, 9):
            assert stirling2(n, 1) == 1
            assert stirling2(n, n) == 1

    def test_recurrence_value(self):
        # S(4,2): expand S(n,i) = i*S(n-1,i) + S(n-1,i-1) by hand
        assert stirling2(4, 2) == 7

    def test_row_sums_are_bell_numbers(self):
        bells = [1, 1, 2, 5, 15, 52, 203, 877]
        for n, b in enumerate(bells):
            assert sum(stirling2(n, i) for i in range(n + 1)) == b

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            stirling2(-1, 0)

    def test_concurrent_fill(self):
        errors = []

        def hammer(start):
            try:
                for n in range(start, 160):
                    stirling2(n, n // 2)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert stirling2(10, 5) == 42525


class TestFallingFactorial:
    def test_empty_product(self):
        assert falling_factorial(7, 0) == 1
        assert falling_factorial(Fraction(3, 2), 0) == 1

    def test_integer(self):
        assert falling_factorial(5, 3) == 60

    def test_rational(self):
        assert falling_factorial(Fraction(21, 5), 2) == Fraction(336, 25)

    def test_binom_poly_matches_comb_on_lattice(self):
        for x in range(0, 12):
            for r in range(0, 12):
                assert binom_poly(x, r) == comb(x, r)

    def test_binom_poly_rational_upper(self):
        mu = Fraction(51, 10)
        assert binom_poly(mu, 2) == mu * (mu - 1) / 2


class TestNablaPower:
    def test_examples(self):
        assert nabla_power(3, 2, 1) == 5
        assert nabla_power(5, 2, 3) == 0  # above the degree
        assert nabla_power(3, 3, 2) == 12

    def test_row_agrees_with_single(self):
        row = nabla_power_row(7, 5, 6)
        assert row == [nabla_power(7, 5, r) for r in range(7)]

    def test_full_order_difference_is_factorial(self):
        # nabla^n x^n = n!
        for n in range(0, 9):
            assert nabla_power(n + 3, n, n) == __import__("math").factorial(n)


class TestAlternatingPowerSum:
    """kernel._alternating_power_sum, the one sum behind nabla_power, the
    classic rate and the dual form of the raw occupancy moments."""

    def test_reproduces_nabla_power(self):
        for m in (0, 1, 5, 12, Fraction(7, 2)):
            for n in range(0, 7):
                for r in range(0, 8):
                    want = difference(lambda x: x**n, DifferenceKind.BACKWARD, r, m)
                    if r > n:
                        assert want == 0  # above the degree
                    got = _alternating_power_sum(
                        [comb(r, j) for j in range(r + 1)],
                        [m - j for j in range(r + 1)],
                        n,
                    )
                    assert got == want, (m, n, r)
                    assert nabla_power(m, n, r) == want, (m, n, r)

    def test_reproduces_classic_rate(self):
        for m in range(1, 14):
            for k in range(1, m + 1):
                for n in range(0, 6):
                    num = 0
                    for i in range(k + 1):
                        num += (-1) ** i * comb(k, i) * comb(m - i, k) ** n
                    coeffs = [comb(k, i) for i in range(k + 1)]
                    bases = [comb(m - i, k) for i in range(k + 1)]
                    assert _alternating_power_sum(coeffs, bases, n) == num
                    assert fpr_classic_exact(m, n, k) == Fraction(num, comb(m, k) ** n)

    def test_unit_exponent_takes_raised_powers(self):
        bases = [9, 8, 7, 6]
        powers = [b**5 for b in bases]
        coeffs = [1, 4, 6, 4]
        want = _alternating_power_sum(coeffs, bases, 5)
        assert _alternating_power_sum(coeffs, powers, 1) == want
        assert _alternating_power_sum(iter(coeffs), iter(bases), 5) == want
        assert _alternating_power_sum([], [], 3) == 0


class TestNablaBinomProduct:
    """The unnormalized difference inside rho."""

    def test_zeroth_difference(self):
        assert binom_product_difference(6, [(1, 2), (1, 3)], 0) == comb(6, 2) * comb(6, 3)

    def test_examples(self):
        assert binom_product_difference(5, [(2, 3)], 3) == 55
        assert binom_product_difference(4, [(2, 2)], 1) == 27

    def test_above_degree_vanishes(self):
        assert binom_product_difference(9, [(1, 2), (1, 3)], 6) == 0

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            binom_product_difference(2, [(1, 3)], 1)


class TestExactCoverCounts:
    """c_i = Delta^i[prod C(x,k)^n]_0 against brute-force enumeration:
    C(m,i) c_i / prod C(m,k)^n is the occupancy p.m.f."""

    @staticmethod
    def pmf(m, departments):
        counts = _exact_cover_counts(departments, m)
        assert all(c >= 0 for c in counts), counts
        total = math.prod(comb(m, k) ** n for n, k in departments)
        return [Fraction(comb(m, i) * c, total) for i, c in enumerate(counts)]

    def test_committee_matches_enumeration(self):
        for m in range(1, 7):
            for k in range(1, m + 1):
                for n in range(1, 4):
                    want = oracle.enumerate_committee_pmf(m, n, k)
                    assert self.pmf(m, [(n, k)]) == want, (m, n, k)

    def test_union_matches_enumeration(self):
        for m, departments in [
            (4, [(1, 1), (1, 2)]),
            (5, [(2, 2), (1, 3)]),
            (6, [(2, 3), (1, 4)]),
            (6, [(1, 1), (2, 2), (1, 3)]),
        ]:
            want = enumerate_union_pmf(CommitteeSpec(m, departments))
            assert self.pmf(m, departments) == want, (m, departments)


class TestDifferenceDuality:
    @given(
        n=st.integers(0, 6),
        order=st.integers(0, 6),
        a=st.integers(0, 12),
    )
    @settings(max_examples=60, deadline=None)
    def test_power_duality(self, n, order, a):
        f = lambda x: x**n  # noqa: E731
        forward = difference(f, DifferenceKind.FORWARD, order, a - order)
        backward = difference(f, DifferenceKind.BACKWARD, order, a)
        assert forward == backward

    @given(
        ks=st.lists(st.integers(1, 4), min_size=1, max_size=3),
        order=st.integers(0, 5),
        a=st.integers(0, 10),
    )
    @settings(max_examples=60, deadline=None)
    def test_binom_product_duality(self, ks, order, a):
        f = lambda x: __import__("math").prod(binom_poly(x, k) for k in ks)  # noqa: E731
        forward = difference(f, DifferenceKind.FORWARD, order, a - order)
        backward = difference(f, DifferenceKind.BACKWARD, order, a)
        assert forward == backward

    def test_binomial_shift_identity(self):
        # nabla^i C(x,k) at x=m equals C(m-i, k-i)
        for m in range(1, 10):
            for k in range(1, m + 1):
                for i in range(0, k + 1):
                    got = difference(
                        lambda x: binom_poly(x, k), DifferenceKind.BACKWARD, i, m
                    )
                    assert got == comb(m - i, k - i)


class TestRho:
    def test_initial_condition(self):
        for s in range(2, 12):
            assert rho(0, s, [(1, 2)]) == 1

    def test_examples(self):
        assert rho(3, 5, [(2, 3)]) == Fraction(11, 20)
        assert rho(1, 4, [(2, 2)]) == Fraction(3, 4)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_direct_equals_recursive(self, data):
        s = data.draw(st.integers(1, 30))
        department = st.tuples(st.integers(1, 3), st.integers(1, min(s, 6)))
        departments = data.draw(st.lists(department, min_size=1, max_size=3))
        r = data.draw(st.integers(0, s))
        assert rho(r, s, departments) == rho_by_recursion(r, s, departments)

    def test_rejects_order_outside_zero_to_s(self):
        for r in (-1, 6, 10):
            with pytest.raises(ValueError):
                rho(r, 5, [(1, 2)])

    def test_results_are_reduced(self):
        v = rho(2, 8, [(1, 3), (1, 2)])
        assert v.denominator > 0
        from math import gcd

        assert gcd(v.numerator, v.denominator) == 1


class TestStirlingDifferenceIdentity:
    @given(
        n=st.integers(1, 8),
        r=st.integers(0, 8),
        num=st.integers(-40, 40),
        den=st.integers(1, 9),
    )
    @settings(max_examples=60, deadline=None)
    def test_holds_at_rational_points(self, n, r, num, den):
        # sum_i S(n,i) i^r z_(i) == sum_j S(r,j) nabla^j[x^n]_z z_(j),
        # as polynomials in z, so also at non-integer rationals
        z = Fraction(num, den)
        lhs = sum(
            stirling2(n, i) * i**r * falling_factorial(z, i)
            for i in range(1, n + 1)
        )
        rhs = sum(
            stirling2(r, j) * nabla_power(z, n, j) * falling_factorial(z, j)
            for j in range(r + 1)
        )
        assert lhs == rhs


def refuse():
    raise AssertionError("the exact value was formed")


class TestCertified:
    """A bracket lo <= x <= hi with a thunk for x, formed only if needed."""

    def test_exact_bracket_never_forms_x(self):
        x = Fraction(1, 3)
        value = _Certified(x, x, refuse)
        assert value.exact() == x
        assert value.read(lambda f: f <= x) is True
        assert value.read(lambda f: f < x) is False

    def test_thunk_runs_at_most_once_and_narrows(self):
        calls = []

        def thunk():
            calls.append(1)
            return Fraction(2, 5)

        value = _Certified(Fraction(1, 3), Fraction(1, 2), thunk)
        assert value.exact() == value.exact() == Fraction(2, 5)
        assert (value.lo, value.hi) == (Fraction(2, 5), Fraction(2, 5))
        assert value.read(lambda f: f >= Fraction(2, 5)) is True
        assert calls == [1]

    def test_deciding_bracket_never_forms_x(self):
        value = _Certified(Fraction(1, 3), Fraction(1, 2), refuse)
        assert value.read(lambda f: f <= Fraction(1, 2)) is True
        assert value.read(lambda f: f < Fraction(1, 3)) is False
        assert value.read(lambda f: math.floor(3 * f)) == 1
        assert (value.lo, value.hi) == (Fraction(1, 3), Fraction(1, 2))

    def test_read_is_g_of_x_at_the_decision_point(self):
        # brackets with an end at the decision point t, and x at t or on
        # either side inside them: read answers g(x) for increasing and
        # decreasing g, strict or not, whichever end g(x) agrees with
        t, d = Fraction(1, 7), Fraction(1, 1000)
        tests = [
            lambda f: f >= t, lambda f: f > t, lambda f: f <= t, lambda f: f < t,
            lambda f: math.floor(7 * f), lambda f: -math.ceil(7 * f),
        ]
        brackets = [(t - d, t), (t, t + d), (t - d, t + d), (t, t)]
        seen = set()
        for lo, hi in brackets:
            for x in (lo, t, hi, (lo + t) / 2, (t + hi) / 2):
                for g in tests:
                    value = _Certified(lo, hi, lambda: x)
                    assert value.read(g) == g(x), (lo, hi, x)
                    seen.add((g(lo) == g(x), g(hi) == g(x)))
        # g(x) matched only the low end, only the high end, and both
        assert {(True, False), (False, True), (True, True)} <= seen


def prime_powers(base):
    """{p: a} with p^a exactly dividing base, by trial division (the bases
    here, m and C(m, k), have no prime factor above m <= 1024)."""
    out, p = {}, 2
    while base > 1:
        while base % p == 0:
            out[p] = out.get(p, 0) + 1
            base //= p
        p += 1
    return out


# m and C(m, k), the bases of the rates, moments and p.m.f.s
LOWEST_TERMS_BASES = [2, 768, 1000, 1024, comb(64, 3), comb(1024, 7), comb(100, 50)]


def lowest_terms_cases():
    """(num, den, base) with den = base^e: numerators sharing base^j up to
    j = e - 1, or a power of one prime of base up to past its power in den,
    times cofactors that are 1, coprime to base or share other primes."""
    for base in LOWEST_TERMS_BASES:
        powers = prime_powers(base)
        primes = sorted(powers)
        for bits in (8, 400, 3000):
            e = -(-bits // base.bit_length())
            den = base**e
            shares = [base**j for j in sorted({0, 1, e // 2, e - 1})]
            for p in (primes[0], primes[-1]):
                full = powers[p] * e
                shares += [p**v for v in sorted({1, full - 1, full, full + 3})]
            for share in shares:
                for cof in (1, 3**40 + 2, (base - 1) ** 5, -(7**90)):
                    yield cof * share, den, base
            yield 0, den, base


def strip_step_bound(num, den, base):
    """The docstring's bound on _lowest_terms's trial divisions of num: at
    most 2 omega(base) + 1 stripping rounds, each at most 2 log2(v + 1)
    for v <= bit_length(den)."""
    rounds = 2 * len(prime_powers(base)) + 1
    return rounds * 2 * math.log2(den.bit_length() + 1)


def kernel_against(stub):
    """A fresh copy of bloomlab.kernel, loaded while fractions.Fraction is
    stub: how a Python with that Fraction would import it."""
    fake = types.ModuleType("fractions")
    fake.Fraction = stub
    spec = importlib.util.spec_from_file_location("kernel_copy", kernel.__file__)
    module = importlib.util.module_from_spec(spec)
    with patch.dict(sys.modules, {"fractions": fake}):
        spec.loader.exec_module(module)
    return module


class TestLowestTerms:
    def test_grid_equals_fraction_in_lowest_terms(self):
        cases = 0
        for num, den, base in lowest_terms_cases():
            got, want = _lowest_terms(num, den, base), Fraction(num, den)
            assert type(got) is Fraction
            assert got.numerator == want.numerator, (num, den, base)
            assert got.denominator == want.denominator, (num, den, base)
            assert math.gcd(got.numerator, got.denominator) == 1
            cases += den.bit_length() > kernel._GCD_BITS
        assert cases > 500  # most cases take the stripping path

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_shares_equal_fraction(self, data):
        base = data.draw(st.sampled_from(LOWEST_TERMS_BASES), label="base")
        e = data.draw(st.integers(1, 4000 // base.bit_length() + 1), label="e")
        powers = prime_powers(base)
        p = data.draw(st.sampled_from(sorted(powers)), label="p")
        j = data.draw(st.integers(0, e - 1), label="j")
        v = data.draw(st.integers(0, powers[p] * e + 4), label="v")
        cof = data.draw(st.integers(-(2**600), 2**600), label="cofactor")
        num, den = cof * base**j * p**v, base**e
        got, want = _lowest_terms(num, den, base), Fraction(num, den)
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)

    def test_strip_steps_are_logarithmic(self, monkeypatch):
        steps = []

        def counting(a, b):
            steps.append(b)
            return divmod(a, b)

        monkeypatch.setattr(kernel, "divmod", counting, raising=False)
        for num, den, base in lowest_terms_cases():
            steps.clear()
            _lowest_terms(num, den, base)
            assert len(steps) <= strip_step_bound(num, den, base), (num, den, base)
        # 1024^1999 shared: a loop stripping one 1024 per step takes 1999
        steps.clear()
        assert _lowest_terms(3 * 1024**1999, 1024**2000, 1024) == Fraction(3, 1024)
        assert 0 < len(steps) <= 2 * math.log2(2000) + 2

    def test_builds_the_fraction_without_a_gcd(self, monkeypatch):
        num, den = 5**3000 * 2**45 + 2**45, 1000**1500
        want = Fraction(num, den)
        seen = []

        class GcdSpy:
            def __getattr__(self, name):
                return getattr(math, name)

            @staticmethod
            def gcd(*args):
                seen.append(args)
                return math.gcd(*args)

        monkeypatch.setattr(fractions, "math", GcdSpy())
        got = _lowest_terms(num, den, 1000)
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        assert seen == []

    def test_construction_path_of_this_python(self):
        # numerator and denominator are taken as given, unreduced
        q = kernel._coprime_fraction(6, 4)
        assert (q.numerator, q.denominator) == (6, 4)
        if sys.version_info >= (3, 12):
            assert kernel._coprime_fraction == Fraction._from_coprime_ints
        else:
            assert kernel._coprime_fraction.__name__ == "_coprime_fraction"

    def test_construction_path_of_each_python(self):
        # the unreduced construction is chosen at import: _from_coprime_ints
        # (CPython 3.12 on), the _normalize keyword (up to 3.11), or, on a
        # Python with neither, Fraction itself, which reduces again; the
        # value of a reduction is the same on every path
        built = []

        class Coprime:
            def __new__(cls, num=0, den=None):
                return Fraction(num, den)

            @staticmethod
            def _from_coprime_ints(num, den):
                built.append("coprime")
                return Fraction(num, den)

        class Keyword:
            def __new__(cls, num=0, den=None, *, _normalize=True):
                built.append("keyword" if _normalize is False else "reduced")
                return Fraction(num, den)

        class Neither:
            def __new__(cls, num=0, den=None):
                built.append("reduced")
                return Fraction(num, den)

        num, den = 5**3000 * 2**45 + 2**45, 1000**1500
        paths = [(Coprime, "coprime"), (Keyword, "keyword"), (Neither, "reduced")]
        for stub, path in paths:
            copy = kernel_against(stub)
            if stub is Neither:
                assert copy._coprime_fraction is Neither
            built.clear()
            assert copy._coprime_fraction(3, 2) == Fraction(3, 2)
            assert built == [path], stub
            built.clear()
            assert copy._lowest_terms(num, den, 1000) == Fraction(num, den), stub
            assert built[-1] == path, stub

    def test_small_denominators_reduce_by_fraction(self, monkeypatch):
        monkeypatch.setattr(
            kernel, "_coprime_fraction", lambda num, den: pytest.fail("stripped")
        )
        den = 1024**31  # 311 bits
        assert den.bit_length() <= kernel._GCD_BITS
        assert _lowest_terms(48, den, 1024) == Fraction(48, den)


class TestLog2Fraction:
    def test_powers_of_two(self):
        assert log2_fraction(Fraction(1, 1024)) == -10
        assert log2_fraction(Fraction(4096)) == 12

    def test_tiny_value_beyond_float_range(self):
        q = Fraction(3, 2**2000)
        assert abs(log2_fraction(q) - (1.584962500721156 - 2000)) < 1e-9

    def test_matches_math_log2_in_range(self):
        import math

        for num, den in [(7, 9), (123456, 789), (1, 3), (10**12, 7)]:
            assert abs(log2_fraction(Fraction(num, den)) - math.log2(num / den)) < 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log2_fraction(Fraction(0))
