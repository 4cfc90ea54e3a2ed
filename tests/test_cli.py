import hashlib
import io
import json
import math
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest.mock import patch

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from bloomlab import analytics, kernel
from bloomlab import cli as cli_module
from bloomlab.cli import cli, fraction_sci, main, power_sci
from bloomlab.filters import BloomFilter, FilterParams, FilterVariant, serialize
from bloomlab.kernel import log2_fraction
from bloomlab.suites import CheckResult, SuiteResult
from fractions import Fraction


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture(autouse=True)
def _restore_int_str_limit():
    """main() lifts the int-to-str digit cap for the whole process."""
    limit = sys.get_int_max_str_digits()
    yield
    sys.set_int_max_str_digits(limit)


def fraction_sci_by_fractions(value: Fraction) -> str:
    """The printer as it was before its integer rewrite, Fraction division
    and round() throughout: the oracle for cli.fraction_sci."""
    if value == 0:
        return "0"
    neg = value < 0
    a = -value if neg else value
    exp = math.floor(log2_fraction(a) * math.log10(2))
    scale = Fraction(10) ** exp
    if a < scale:
        exp -= 1
        scale /= 10
    elif a >= 10 * scale:
        exp += 1
        scale *= 10
    digits = round(a / scale * 10**5)
    if digits >= 10**6:  # rounded up to the next power of ten
        digits //= 10
        exp += 1
    text = str(digits)
    return f"{'-' if neg else ''}{text[0]}.{text[1:]}e{exp:+03d}"


def _printing_grid():
    """Six-digit mantissas at and around every rounding case (exact, tie,
    just off a tie, carries to the next power of ten), at exponents from
    1e-1000 up, both signs; and rates of the paper's sizes."""
    tails = [Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(999, 1000)]
    tails += [Fraction(1, 2) + Fraction(s, 10**12) for s in (-1, 1)]
    for exp in (-1000, -801, -800, -433, -308, -43, -10, -4, -1, 0, 1, 2, 5, 40):
        for digits in (100000, 123456, 500000, 976562, 999999):
            for tail in tails:
                value = (digits + tail) * Fraction(10) ** (exp - 5)
                yield value
                yield -value
    # at and around powers of ten, where the exponent from log2 can be one
    # off either way
    for exp in (-1000, -800, -43, -1, 0, 1, 40):
        for eps in (0, Fraction(-1, 10**14), Fraction(-1, 10**17), Fraction(1, 10**17)):
            yield Fraction(10) ** exp * (1 + eps)
    for m, n, k in [(1024, 5, 133), (64, 4, 11), (1000, 20, 35), (2, 1, 1)]:
        yield 1 - Fraction(m - 1, m) ** (n * k)
        yield (1 - Fraction(m - 1, m) ** (n * k)) ** k
        yield Fraction(1, m ** (n * k))


class TestFractionSci:
    def test_values(self):
        assert fraction_sci(Fraction(0)) == "0"
        assert fraction_sci(Fraction(11, 20)) == "5.50000e-01"
        assert fraction_sci(Fraction(1, 10**50)) == "1.00000e-50"
        assert fraction_sci(Fraction(-3, 4)) == "-7.50000e-01"
        # 999.9995 rounds up to the next power of ten and carries
        assert fraction_sci(Fraction(9999995, 10000)) == "1.00000e+03"

    def test_far_below_float_range(self):
        # 2^2000 = 1.148130e602, so 3/2^2000 = 2.612943e-602
        assert fraction_sci(Fraction(3, 2**2000)) == "2.61294e-602"

    def test_rounding_cases(self):
        # the tie 2^-10 = 9.765625e-04 goes to the even digit
        assert fraction_sci(Fraction(1, 1024)) == "9.76562e-04"
        assert fraction_sci(Fraction(-1, 1024)) == "-9.76562e-04"
        assert fraction_sci(Fraction(9999995, 10**7)) == "1.00000e+00"
        assert fraction_sci(Fraction(1, 10**800)) == "1.00000e-800"
        # just under 10^-1000, where the exponent from log2 is one high
        below = Fraction(1, 10**1000) * (1 - Fraction(1, 10**14))
        assert fraction_sci(below) == "1.00000e-1000"
        assert fraction_sci(below * (1 - Fraction(1, 10**5))) == "9.99990e-1001"
        assert fraction_sci(Fraction(-7, 3 * 10**900)) == "-2.33333e-900"

    def test_equals_the_fraction_arithmetic_printer(self):
        values = list(_printing_grid())
        assert len(values) > 800
        for value in values:
            assert fraction_sci(value) == fraction_sci_by_fractions(value), value

    @given(
        num=st.integers(-(10**400), 10**400).filter(bool),
        den=st.integers(1, 10**400),
        shift=st.integers(-3000, 3000),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_values_equal_the_oracle(self, num, den, shift):
        value = Fraction(num, den) * Fraction(2) ** shift
        assert fraction_sci(value) == fraction_sci_by_fractions(value)

    def test_power_sci_at_the_paper_cell(self):
        base = 1 - Fraction(1023, 1024) ** 665
        assert power_sci(base, 133) == fraction_sci_by_fractions(base**133)
        assert power_sci(base, 133) == "2.19495e-43"


class TestPrintedOutputsUnchanged:
    """analyze and optimize print the same bytes with the integer printer
    as with the Fraction-arithmetic one."""

    REQUESTS = [
        ["analyze", "--m", "1024", "--n", "5", "--k", "133"],
        ["analyze", "--m", "1024", "--n", "5", "--k", "133", "--variant", "classic"],
        ["analyze", "--m", "64", "--n", "4", "--k", "11", "--format", "json"],
        ["analyze", "--m", "512", "--n", "1", "--k", "400", "--format", "json"],
        ["optimize", "--m", "1024", "--n", "5"],
        ["optimize", "--m", "1000", "--n", "20", "--format", "json"],
        ["optimize", "--m", "100", "--p", "0.01"],
        ["optimize", "--n", "8", "--p", "1e-5", "--variant", "classic"],
    ]

    @pytest.mark.parametrize("args", REQUESTS, ids=" ".join)
    def test_stdout_equals_the_oracle_printers(self, monkeypatch, capsys, args):
        out = _main_stdout(monkeypatch, capsys, args)
        monkeypatch.setattr(cli_module, "fraction_sci", fraction_sci_by_fractions)
        monkeypatch.setattr(cli_module, "_lowest_terms", lambda n, d, b: Fraction(n, d))
        assert _main_stdout(monkeypatch, capsys, args) == out


class TestAnalyze:
    def test_classic_text(self, runner):
        result = runner.invoke(
            cli, ["analyze", "--m", "5", "--n", "2", "--k", "3", "--variant", "classic"]
        )
        assert result.exit_code == 0
        assert "11/20" in result.output
        assert "5.50000e-01" in result.output

    def test_standard_json(self, runner):
        result = runner.invoke(
            cli,
            ["analyze", "--m", "64", "--n", "4", "--k", "11", "--format", "json"],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["exact"].startswith("6.24780e-04")
        assert payload["variant"] == "standard"
        assert set(payload) >= {
            "exact",
            "exact_fraction",
            "bound_E",
            "bound_M",
            "bound_L",
            "bound_U",
            "taylor",
            "recursive",
            "efficiency",
            "log2_exact",
        }

    @pytest.mark.parametrize("variant", ["standard", "classic"])
    def test_paper_optimum_configuration(self, runner, variant):
        result = runner.invoke(
            cli,
            ["analyze", "--m", "1024", "--n", "5", "--k", "133", "--variant", variant],
        )
        assert result.exit_code == 0, result.output

    def test_saturated_rate_prints_no_negative_zero(self, runner):
        args = ["analyze", "--m", "8", "--n", "1", "--k", "8", "--variant", "classic"]
        text = runner.invoke(cli, args)
        assert text.exit_code == 0
        assert "-0.0" not in text.output
        assert "efficiency     0.000000" in text.output
        payload = json.loads(runner.invoke(cli, args + ["--format", "json"]).output)
        assert payload["exact"] == "1.00000e+00"
        for key in ("efficiency", "bits_of_cutdown"):
            assert math.copysign(1.0, payload[key]) == 1.0, key

    def test_recursive_row_below_double_range(self, runner, monkeypatch):
        # the exact rate, 3.2e-740, takes about 13 s here and is not what
        # this test reads, so it is stubbed
        monkeypatch.setattr(analytics, "fpr_exact", lambda *args: Fraction(1, 2**2456))
        args = ["analyze", "--m", "4096", "--n", "1", "--k", "3000"]
        text = runner.invoke(cli, args)
        assert text.exit_code == 0, text.output
        assert "recursive      0.000000e+00\n" in text.output
        payload = json.loads(runner.invoke(cli, args + ["--format", "json"]).output)
        assert payload["recursive"] == 0.0

    def test_invalid_params_usage_error(self, runner):
        result = runner.invoke(cli, ["analyze", "--m", "0", "--n", "1", "--k", "1"])
        assert result.exit_code != 0


# analyze's stdout as printed while M was formed as an exact Fraction: text
# in full, JSON (which carries the exact rate's fraction) by sha256. Each
# recursive line prints the digits of its exact rate.
_ANALYZE_PINNED = {
    (1024, 5, 133, "standard"): (
        (
            "m=1024 n=5 k=133 variant=standard\n"
            "exact fpr      2.91401e-42\n"
            "log2 exact     -137.977977  (cut-down 137.9780 bits)\n"
            "bound E        2.095989e-43\n"
            "bound M        2.19495e-43\n"
            "bound L        1.34919e-46\n"
            "bound U        1.27780e-40\n"
            "taylor approx  8.154329e-43\n"
            "recursive      2.914005e-42\n"
            "efficiency     0.673721\n"
        ),
        "b8bda7fee35c79bcf4944cc42d1466d41b8002d3fcc50426404218529b5f7663",
    ),
    (1024, 5, 133, "classic"): (
        (
            "m=1024 n=5 k=133 variant=classic\n"
            "exact fpr      1.10944e-43\n"
            "log2 exact     -142.693080  (cut-down 142.6931 bits)\n"
            "bound E        2.095989e-43\n"
            "bound M        2.19495e-43\n"
            "bound L        1.34919e-46\n"
            "bound U        1.27780e-40\n"
            "taylor approx  8.154329e-43\n"
            "recursive      1.109438e-43\n"
            "efficiency     0.696744\n"
        ),
        "6f50d581f0c5f3586b24776180d33718d4b98554d7046c85700499a40fe3e417",
    ),
    (64, 4, 11, "classic"): (
        (
            "m=64 n=4 k=11 variant=classic\n"
            "exact fpr      4.85097e-04\n"
            "log2 exact     -11.009440  (cut-down 11.0094 bits)\n"
            "bound E        4.587107e-04\n"
            "bound M        4.87104e-04\n"
            "bound L        2.45988e-04\n"
            "bound U        9.20970e-04\n"
            "taylor approx  6.148560e-04\n"
            "recursive      4.850967e-04\n"
            "efficiency     0.688090\n"
        ),
        "8bbe5ffccd7837603c395f6cf1e62cb1bd4757352c3527ef961e96d2272c9ef4",
    ),
    (1, 3, 2, "standard"): (
        (
            "m=1 n=3 k=2 variant=standard\n"
            "exact fpr      1.00000e+00\n"
            "log2 exact     0.000000  (cut-down 0.0000 bits)\n"
            "bound E        9.950486e-01\n"
            "bound M        1.00000e+00\n"
            "bound L        2.00000e+00\n"
            "bound U        1.00000e+00\n"
            "taylor approx  1.000000e+00\n"
            "recursive      1.000000e+00\n"
            "efficiency     0.000000\n"
        ),
        "a7bcba1182e1c26643ab0238d40fb29fdacb53f21d00b0a4ebe50ac2ca616b22",
    ),
    (1, 2, 1, "classic"): (
        (
            "m=1 n=2 k=1 variant=classic\n"
            "exact fpr      1.00000e+00\n"
            "log2 exact     0.000000  (cut-down 0.0000 bits)\n"
            "bound E        8.646647e-01\n"
            "bound M        1.00000e+00\n"
            "bound L        1.00000e+00\n"
            "bound U        1.00000e+00\n"
            "taylor approx  1.000000e+00\n"
            "recursive      1.000000e+00\n"
            "efficiency     0.000000\n"
        ),
        "95404e358b59e6ebc498d7ab57a6618072414e473be6198ca7dcfc721844ad76",
    ),
    (17, 0, 3, "standard"): (
        (
            "m=17 n=0 k=3 variant=standard\n"
            "exact fpr      0\n"
            "log2 exact     -inf  (cut-down inf bits)\n"
            "bound E        0.000000e+00\n"
            "bound M        0\n"
            "bound L        0\n"
            "bound U        0\n"
            "taylor approx  0.000000e+00\n"
            "recursive      0.000000e+00\n"
            "efficiency     0.000000\n"
        ),
        "1e07156efc7601a33ad5244948af534366dfc6d8a746b0e12eb2ec9002b538dc",
    ),
    (8, 2, 20, "standard"): (
        (
            "m=8 n=2 k=20 variant=standard\n"
            "exact fpr      9.64576e-01\n"
            "log2 exact     -0.052033  (cut-down 0.0520 bits)\n"
            "bound E        8.735281e-01\n"
            "bound M        9.08439e-01\n"
            "bound L        5.55488e+06\n"
            "bound U        1.00000e+00\n"
            "taylor approx  1.010315e+00\n"
            "recursive      9.645764e-01\n"
            "efficiency     0.013008\n"
        ),
        "8aeb6d11ce7f74fe5f9fe0b4577b0366af54f763fb682b771fb4811d55b5146a",
    ),
}


def _main_stdout(monkeypatch, capsys, args):
    monkeypatch.setattr(sys, "argv", ["bloomlab", *args])
    main()  # returns normally: exit 0
    return capsys.readouterr().out


def exact_sums(monkeypatch):
    """Two lists recording, from here on, each exact sum of a rate's terms
    (analytics._rate_value: fpr_*_exact, a thunk, or a bracket that cut
    nothing) and each certified rate's thunk called."""
    sums, thunks = [], []
    value = analytics._rate_value

    def counted(*terms):
        sums.append(terms[3])
        return value(*terms)

    class Counted(kernel._Certified):
        def __init__(self, lo, hi, thunk):
            def counted_thunk():
                thunks.append(lo)
                return thunk()

            super().__init__(lo, hi, counted_thunk)

    monkeypatch.setattr(analytics, "_rate_value", counted)
    monkeypatch.setattr(analytics, "_Certified", Counted)
    return sums, thunks


class TestAnalyzePinnedOutput:
    """analyze prints M from a bracket of its base (power_sci), never from
    the exact power, and its stdout is unchanged byte for byte."""

    @pytest.mark.parametrize("config", list(_ANALYZE_PINNED))
    def test_stdout_unchanged(self, monkeypatch, capsys, config):
        m, n, k, variant = config
        args = ["analyze", "--m", str(m), "--n", str(n), "--k", str(k),
                "--variant", variant]
        text, json_sha = _ANALYZE_PINNED[config]
        assert _main_stdout(monkeypatch, capsys, args) == text
        out = _main_stdout(monkeypatch, capsys, args + ["--format", "json"])
        assert hashlib.sha256(out.encode()).hexdigest() == json_sha

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_paper_configuration_never_forms_exact_m(self, monkeypatch, capsys, fmt):
        def refuse(self):
            raise AssertionError("the exact M was formed")

        monkeypatch.setattr(analytics.FprBounds, "M", property(refuse))
        args = ["analyze", "--m", "1024", "--n", "5", "--k", "133", "--format", fmt]
        out = _main_stdout(monkeypatch, capsys, args)
        assert "2.19495e-43" in out


class TestPowerSci:
    """power_sci(base, k) prints exactly what fraction_sci(base ** k) does."""

    BASES = [
        Fraction(0),
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 3),
        Fraction(2, 3),
        Fraction(9, 8),
        Fraction(999, 1000),
        Fraction(1, 10**30),
        Fraction(10**30 + 1, 10**30),
    ] + [
        1 - Fraction(m - 1, m) ** (n * k)
        for m in (2, 7, 64, 1000, 1024)
        for n in (1, 5, 20)
        for k in (1, 3, 30)
    ]

    @pytest.fixture()
    def formatted(self, monkeypatch):
        """Every value power_sci hands to fraction_sci, in order."""
        seen = []

        def spy(value):
            seen.append(value)
            return fraction_sci(value)

        monkeypatch.setattr(cli_module, "fraction_sci", spy)
        return seen

    @pytest.mark.parametrize("k", [1, 2, 3, 10, 30, 133])
    def test_matches_the_exact_power(self, k):
        for base in self.BASES:
            assert power_sci(base, k) == fraction_sci(base**k), (base, k)

    @pytest.mark.parametrize(
        "base, k, text",
        [
            (Fraction(1, 2), 10, "9.76562e-04"),  # 9.765625e-04
            (Fraction(1, 1024), 1, "9.76562e-04"),
            (Fraction(9, 8), 2, "1.26562e+00"),  # 1.265625
        ],
    )
    def test_rounding_tie_takes_the_exact_power(self, formatted, base, k, text):
        assert power_sci(base, k) == text
        # the two bracket ends print apart, so the exact power decides
        assert len(formatted) == 3 and formatted[-1] == base**k

    def test_bracket_alone_decides_away_from_ties(self, formatted):
        base = 1 - Fraction(1023, 1024) ** 665
        assert power_sci(base, 133) == "2.19495e-43"
        assert len(formatted) == 2


class TestOptimize:
    def test_m_n(self, runner):
        result = runner.invoke(
            cli, ["optimize", "--m", "64", "--n", "4", "--variant", "classic"]
        )
        assert result.exit_code == 0
        assert "k_exact          9" in result.output

    def test_both_variants_when_unspecified(self, runner):
        result = runner.invoke(
            cli, ["optimize", "--m", "1000", "--n", "20", "--format", "json"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert [p["variant"] for p in payload] == ["classic", "standard"]
        assert payload[0]["k_exact"] == 33
        assert payload[1]["k_exact"] == 34

    @pytest.mark.parametrize("variant", ["classic", "standard"])
    def test_m_n_rates_the_seed_once(self, runner, monkeypatch, variant):
        # at (1024, 5) the closed-form seed 142 loses in both variants. It
        # is rated once, as a bracket, and both printed rates are read from
        # their brackets: no exact sum at all
        seed = analytics._k_seed(1024, 5)
        source, rated = analytics._rate_source, []

        def traced_source(m, n, var):
            rate = source(m, n, var)

            def traced(k):
                rated.append(k)
                return rate(k)

            return traced

        monkeypatch.setattr(analytics, "_rate_source", traced_source)
        sums, thunks = exact_sums(monkeypatch)
        result = runner.invoke(
            cli, ["optimize", "--m", "1024", "--n", "5", "--variant", variant,
                  "--format", "json"],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["k_exact"] != seed
        assert rated.count(seed) == 1
        assert (sums, thunks) == ([], [])
        rate = analytics.fpr_exact(1024, 5, seed, cli_module._variant(variant))
        assert payload["fpr_at_estimate"] == fraction_sci(rate)

    def test_requires_exactly_two(self, runner):
        result = runner.invoke(cli, ["optimize", "--m", "64"])
        assert result.exit_code != 0
        result = runner.invoke(
            cli, ["optimize", "--m", "64", "--n", "4", "--p", "0.01"]
        )
        assert result.exit_code != 0

    def test_m_p_gives_capacity(self, runner):
        result = runner.invoke(
            cli,
            ["optimize", "--m", "64", "--p", "0.001", "--variant", "standard",
             "--format", "json"],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["n_max_exact"] >= 1
        assert "n_max_estimate" in payload

    # optima at k = 1 above 2^-0.5, where pruning once did not start: each
    # answer checked against the exact k = 1 rate 1 - (1 - 1/m)^n, the same
    # in both variants

    @staticmethod
    def both_variants(runner, *args):
        result = runner.invoke(cli, ["optimize", *args, "--format", "json"])
        assert result.exit_code == 0, result.output
        payloads = json.loads(result.output)
        assert [p["variant"] for p in payloads] == ["classic", "standard"]
        return payloads

    @pytest.mark.parametrize("m, p, n_max", [(64, 0.999, 438), (128, 0.9, 293)])
    def test_high_load_capacity(self, runner, m, p, n_max):
        for payload in self.both_variants(runner, "--m", str(m), "--p", str(p)):
            assert (payload["n_max_exact"], payload["k_exact"]) == (n_max, 1)
        stay = Fraction(m - 1, m)
        assert 1 - stay**n_max <= Fraction(p) < 1 - stay ** (n_max + 1)

    def test_high_load_optimal_k(self, runner):
        for payload in self.both_variants(runner, "--m", "256", "--n", "1000"):
            assert payload["k_exact"] == 1
            assert payload["fpr_exact"] == "9.80037e-01"
        assert fraction_sci(1 - Fraction(255, 256) ** 1000) == "9.80037e-01"


# optimize and sweep stdout as printed while each rate was formed exactly
# (fpr_exact and optimal_k's exact rates): text in full or by sha256. The
# standard rates at (256, 1) and (1024, 1) come from chain brackets, those
# at (1024, 5) from cut terms
_RATES_PINNED = {
    ("optimize", "--m", "1024", "--n", "5"): (
        "variant          classic\nm                1024\nn                5\n"
        "k_exact          124\nfpr_exact        9.13467e-44\n"
        "k_estimate       141.9565425786768\nfpr_at_estimate  1.88963e-43\n"
        "estimate_gap     18\n\n"
        "variant          standard\nm                1024\nn                5\n"
        "k_exact          133\nfpr_exact        2.91401e-42\n"
        "k_estimate       141.9565425786768\nfpr_at_estimate  3.37186e-42\n"
        "estimate_gap     9\n"
    ),
    ("optimize", "--m", "1024", "--n", "5", "--format", "json"):
        "6152efc5c642b79177d19cb63c285426c6f41fe29b99d365492ed06de6140650",
    ("optimize", "--m", "256", "--n", "1"):
        "673ae9530a1473b3dd11b6d8af8a7de426d8b789b20af808c53315f0b782864c",
    ("optimize", "--m", "1024", "--n", "1"):
        "51db410b30689c07a56506a0ff6e8d7b12aa3ae5c0a00cdaea84c6b2d8cfc98e",
    ("sweep", "--variable", "k", "--start", "120", "--end", "145", "--m", "1024",
     "--n", "5", "--outputs", "exact,efficiency"):
        "45ad3e4a0b14fbcfdc424e919f5e634789aed8ad9f60edf092364605303b7ba9",
    ("sweep", "--variable", "k", "--start", "120", "--end", "145", "--m", "1024",
     "--n", "5", "--outputs", "exact,efficiency", "--variant", "classic"):
        "f9ea17f59dc3a946c03ba977972fb6f74943c7ccacd30c1809cc246d2db2459a",
    ("sweep", "--variable", "k", "--start", "130", "--end", "146", "--m", "256",
     "--n", "1", "--outputs", "exact,efficiency"):
        "3489306ac3c5e81ff7b21d5f09dce8c049190f96e25c7789066aa0d27c38b159",
    ("sweep", "--variable", "k", "--start", "1", "--end", "1024", "--step", "31",
     "--m", "1024", "--n", "1", "--outputs", "exact,efficiency"):
        "15abfb168a18f84437301db3e894be1d5b69cea2413fe7c1a11fd604b52cf46e",
    ("sweep", "--variable", "n", "--start", "0", "--end", "3", "--m", "64", "--k",
     "3", "--outputs", "exact"): (
        "variant,m,n,k,exact\nstandard,64,0,3,0\nstandard,64,1,3,9.96282e-05\n"
        "standard,64,2,3,7.46046e-04\nstandard,64,3,3,2.35111e-03\n"
    ),
    ("sweep", "--variable", "n", "--start", "0", "--end", "3", "--m", "64", "--k",
     "3", "--outputs", "exact", "--variant", "classic"): (
        "variant,m,n,k,exact\nclassic,64,0,3,0\nclassic,64,1,3,2.40015e-05\n"
        "classic,64,2,3,4.46707e-04\nclassic,64,3,3,1.74675e-03\n"
    ),
    # k* columns read only k; at n = 0 every k ties, so k* = 1
    ("sweep", "--variable", "n", "--start", "0", "--end", "64", "--m", "1024",
     "--outputs", "kstar_classic,kstar_standard"):
        "a9639641dc562cfb25e1790dffb7c30a0dc1ac57930c451e601a853aac65316f",
    ("sweep", "--variable", "n", "--start", "1", "--end", "64", "--m", "1024",
     "--outputs", "kstar_est,kstar_classic,kstar_standard"):
        "183e30cb4d8afc3154f9b72b1c7986aac0d76e23ac47ddb8d7fe21524c41ba7e",
    # every rate at n = 0 is exactly 0
    ("sweep", "--variable", "k", "--start", "1", "--end", "50", "--m", "1024",
     "--n", "0"):
        "d5f5c3b5b57b9b018eb8aa7166be5d27bb189c347e37ac96f3008c295d48ef4b",
    # classic rows need k <= m: k = 6, 7, 8 are left out
    ("sweep", "--variable", "k", "--start", "3", "--end", "8", "--m", "5", "--n",
     "2", "--outputs", "exact,efficiency", "--variant", "classic"): (
        "variant,m,n,k,exact,efficiency\nclassic,5,2,3,5.50000e-01,0.344998591\n"
        "classic,5,2,4,8.40000e-01,0.100615507\n"
        "classic,5,2,5,1.00000e+00,0.000000000\n"
    ),
}


class TestRateReads:
    """optimize and sweep print each rate from its certified bracket
    (kernel._Certified.read, Ziv's rounding test), form an exact rate only
    where the bracket cannot decide or a value needs it, and print the
    bytes the exact rates printed."""

    @staticmethod
    def matches(out, pin):
        if "\n" in pin:
            return out == pin
        return hashlib.sha256(out.encode()).hexdigest() == pin

    @pytest.mark.parametrize("args", list(_RATES_PINNED), ids=" ".join)
    def test_stdout_unchanged(self, monkeypatch, capsys, args):
        assert self.matches(_main_stdout(monkeypatch, capsys, list(args)),
                            _RATES_PINNED[args])

    @pytest.mark.parametrize(
        "mode", [["--m", "16384", "--p", "1e-6"], ["--n", "100", "--p", "1e-6"]]
    )
    def test_capacity_modes_read_only_k(self, monkeypatch, capsys, mode):
        # the search's brackets decide every probe, and the trailing k* is
        # read without its exact rate: no thunk is called. The standard
        # requests sum nothing exactly; the classic ones only two brackets
        # that cut nothing, so that their sum is the bracket
        sums, thunks = exact_sums(monkeypatch)
        for variant, formed in (("standard", 0), ("classic", 2)):
            sums.clear()
            args = ["optimize", *mode, "--variant", variant]
            assert "k_exact" in _main_stdout(monkeypatch, capsys, args)
            assert (len(sums), thunks) == (formed, []), variant

    @pytest.mark.parametrize("variant", ["classic", "standard"])
    def test_k_sweep_reads_brackets(self, monkeypatch, capsys, variant):
        # exact alone forms no exact rate; efficiency forms one per row,
        # which exact then shares
        args = ["sweep", "--variable", "k", "--start", "120", "--end", "145",
                "--m", "1024", "--n", "5", "--variant", variant, "--outputs"]
        sums, thunks = exact_sums(monkeypatch)
        _main_stdout(monkeypatch, capsys, args + ["exact"])
        assert (sums, thunks) == ([], [])
        _main_stdout(monkeypatch, capsys, args + ["exact,efficiency"])
        assert len(sums) == len(thunks) == 26

    def test_kstar_columns_read_only_k(self, monkeypatch, capsys):
        # each k* cell reads the optimum's k from its brackets: no exact
        # sum, and no thunk
        sums, thunks = exact_sums(monkeypatch)
        args = ["sweep", "--variable", "n", "--start", "0", "--end", "64",
                "--step", "9", "--m", "1024", "--outputs",
                "kstar_classic,kstar_standard"]
        lines = _main_stdout(monkeypatch, capsys, args).splitlines()
        assert lines[1:3] == ["1024,0,1,1", "1024,9,73,76"]
        assert (sums, thunks) == ([], [])

    def test_print_boundary_takes_the_exact_rate(self, monkeypatch, capsys):
        # every cut bracket widened to f (1 -+ 2^-12), whose ends print
        # apart: each printed rate must come from the exact rate. The
        # classic f(1024, 1, 1) is the tie 2^-10 = 9.765625e-04, which
        # prints to the even digit; either end alone prints 9.76324e-04 or
        # 9.76801e-04
        thunks = []

        def wide(coeffs, bases, e, den, root, q):
            f = analytics._rate_value(coeffs, bases, e, den, root)

            def exact():
                thunks.append(f)
                return f

            return kernel._Certified(f - f / 2**12, f + f / 2**12, exact)

        monkeypatch.setattr(analytics, "_rate_bracket", wide)
        args = ["sweep", "--variable", "k", "--start", "1", "--end", "2", "--m",
                "1024", "--n", "1", "--outputs", "exact", "--variant", "classic"]
        out = _main_stdout(monkeypatch, capsys, args)
        assert out.splitlines()[1] == "classic,1024,1,1,9.76562e-04"
        assert thunks[0] == Fraction(1, 1024)
        for args, pin in _RATES_PINNED.items():
            if "--n" in args and args[args.index("--n") + 1] == "5":
                thunks.clear()
                out = _main_stdout(monkeypatch, capsys, list(args))
                assert self.matches(out, pin), args
                assert thunks, args


class TestSweep:
    def test_header_and_rows(self, runner):
        result = runner.invoke(
            cli,
            [
                "sweep", "--variable", "k", "--start", "1", "--end", "4",
                "--m", "100", "--n", "20",
                "--outputs", "exact,E,M,L,U,taylor,efficiency",
            ],
        )
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "variant,m,n,k,exact,E,M,L,U,taylor,efficiency"
        assert len(lines) == 5
        assert lines[1].startswith("standard,100,20,1,")

    def test_optimal_k_sweep(self, runner):
        result = runner.invoke(
            cli,
            ["sweep", "--variable", "n", "--start", "4", "--end", "4",
             "--m", "64", "--outputs", "kstar_est,kstar_classic,kstar_standard"],
        )
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "m,n,kstar_est,kstar_classic,kstar_standard"
        assert lines[1] == "64,4,11.0904,9,10"

    def test_kstar_cannot_mix_with_rates(self, runner):
        result = runner.invoke(
            cli,
            ["sweep", "--variable", "n", "--start", "1", "--end", "2",
             "--m", "64", "--outputs", "exact,kstar_est"],
        )
        assert result.exit_code != 0

    def test_fixing_the_variable_is_an_error(self, runner):
        result = runner.invoke(
            cli,
            ["sweep", "--variable", "k", "--start", "1", "--end", "2",
             "--m", "10", "--n", "2", "--k", "3"],
        )
        assert result.exit_code != 0

    def test_out_file(self, runner, tmp_path):
        path = tmp_path / "sweep.csv"
        result = runner.invoke(
            cli,
            ["sweep", "--variable", "n", "--start", "1", "--end", "3",
             "--m", "32", "--k", "2", "--outputs", "exact", "--out", str(path)],
        )
        assert result.exit_code == 0
        assert path.read_text().startswith("variant,m,n,k,exact")

    def test_classic_skips_rows_beyond_m(self, runner):
        # a classic filter needs k <= m: rows k = 3, 4 are left out
        result = runner.invoke(
            cli,
            ["sweep", "--variable", "k", "--start", "1", "--end", "4",
             "--m", "2", "--n", "1", "--variant", "classic"],
        )
        assert result.exit_code == 0
        assert result.output == (
            "variant,m,n,k,exact\n"
            "classic,2,1,1,5.00000e-01\n"
            "classic,2,1,2,1.00000e+00\n"
        )


class TestFilterCommands:
    def test_build_insert_query_info_cycle(self, runner, tmp_path):
        path = tmp_path / "f.blm"
        result = runner.invoke(
            cli,
            ["build", "--m", "128", "--k", "3", "--variant", "classic",
             "--seed", "9", "--out", str(path)],
        )
        assert result.exit_code == 0

        result = runner.invoke(
            cli, ["insert", str(path)], input=b"alpha\nbeta\n"
        )
        assert result.exit_code == 0
        assert "inserted 2 elements" in result.output

        result = runner.invoke(cli, ["query", str(path)], input=b"alpha\ngamma\n")
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "positive\talpha"
        assert lines[1].startswith("negative")

        result = runner.invoke(cli, ["info", str(path), "--format", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["count"] == 2
        assert payload["bit_sum"] == 6
        assert 1.5 < payload["estimated_cardinality"] < 2.5

    def test_query_json(self, runner, tmp_path):
        path = tmp_path / "f.blm"
        runner.invoke(
            cli,
            ["build", "--m", "128", "--k", "3", "--variant", "classic",
             "--seed", "9", "--out", str(path)],
        )
        runner.invoke(cli, ["insert", str(path)], input=b"alpha\nbeta\n")
        result = runner.invoke(
            cli, ["query", str(path), "--format", "json"], input=b"alpha\ngamma\n"
        )
        assert result.exit_code == 0
        assert json.loads(result.output) == {
            "results": [
                {"element": "alpha", "positive": True},
                {"element": "gamma", "positive": False},
            ],
            "positives": 1,
            "total": 2,
        }

    def test_info_text_rows_of_a_full_filter(self, runner, tmp_path):
        # one bit, one hash: the first insert fills the filter
        path = tmp_path / "full.blm"
        runner.invoke(cli, ["build", "--m", "1", "--k", "1", "--out", str(path)])
        runner.invoke(cli, ["insert", str(path)], input=b"a\n")
        result = runner.invoke(cli, ["info", str(path)])
        assert result.exit_code == 0
        assert result.stdout == (
            "m                      1\n"
            "k                      1\n"
            "variant                standard\n"
            "seed                   0\n"
            "count                  1\n"
            "bit_sum                1\n"
            "fill_ratio             1.0\n"
            "estimated_cardinality  saturated\n"
        )
        assert result.stderr.startswith("warning: bit sum exceeds m/2")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_info_at_k_equal_m_has_no_cardinality(self, runner, tmp_path, fmt):
        # k = m sets every bit at the first insert, so a bit sum of 3 out of
        # 8 has no estimate; the header is valid and is printed in full
        params = FilterParams(m=8, k=8, variant=FilterVariant.CLASSIC, seed=1)
        filt = BloomFilter(params)
        filt.bits[0] = 0b1011
        path = tmp_path / "k8.blm"
        path.write_bytes(serialize(filt))
        result = runner.invoke(cli, ["info", str(path), "--format", fmt])
        assert result.exit_code == 0, result.output
        fields = {"m": 8, "k": 8, "variant": "classic", "seed": 1, "count": 0,
                  "bit_sum": 3, "fill_ratio": 0.375, "estimated_cardinality": None}
        if fmt == "json":
            assert json.loads(result.stdout) == fields
        else:
            fields["estimated_cardinality"] = "unavailable"
            assert result.stdout == "".join(
                f"{key:<22} {val}\n" for key, val in fields.items()
            )
        assert result.stderr == ""

    def test_info_empty_filter_cardinality_zero(self, runner, tmp_path):
        path = tmp_path / "e.blm"
        runner.invoke(cli, ["build", "--m", "64", "--k", "2", "--out", str(path)])
        result = runner.invoke(cli, ["info", str(path), "--format", "json"])
        assert json.loads(result.output)["estimated_cardinality"] == 0.0

    def test_saturation_warning(self, runner, tmp_path):
        path = tmp_path / "tiny.blm"
        runner.invoke(cli, ["build", "--m", "4", "--k", "2", "--out", str(path)])
        result = runner.invoke(
            cli, ["insert", str(path)], input=b"a\nb\nc\nd\ne\nf\n"
        )
        assert result.exit_code == 0
        assert "warning" in result.output.lower()

    def test_corrupt_file_is_reported(self, runner, tmp_path):
        path = tmp_path / "bad.blm"
        path.write_bytes(b"not a filter at all")
        result = runner.invoke(cli, ["info", str(path)])
        assert result.exit_code != 0


class TestSimulate:
    def test_text_summary(self, runner):
        result = runner.invoke(
            cli,
            ["simulate", "--m", "32", "--n", "8", "--k", "3",
             "--trials", "300", "--probes", "10", "--seed", "4"],
        )
        assert result.exit_code == 0
        assert "worst |z|" in result.output

    def test_csv(self, runner):
        result = runner.invoke(
            cli,
            ["simulate", "--m", "16", "--n", "4", "--k", "2",
             "--trials", "200", "--format", "csv"],
        )
        assert result.exit_code == 0
        assert result.output.startswith("m,n,k,variant,exact,empirical")


class TestVerify:
    def test_suite_names_match_the_registry(self):
        from bloomlab import suites

        assert cli_module._SUITE_NAMES == tuple(suites.suite_names())

    def test_unknown_suite_exits_1_naming_every_suite(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["bloomlab", "verify", "nosuch"])
        with pytest.raises(SystemExit) as stop:
            main()
        assert stop.value.code == 1
        names = "', '".join(cli_module._SUITE_NAMES)
        assert f"'nosuch' is not one of '{names}'." in capsys.readouterr().err

    def test_known_suite_passes(self, runner):
        result = runner.invoke(cli, ["verify", "valley"])
        assert result.exit_code == 0
        assert "PASS" in result.output

    def test_failing_suite_exits_3(self, runner, monkeypatch):
        from bloomlab import suites as suites_mod

        def broken():
            return SuiteResult("broken", [CheckResult("nope", False, "by design")])

        monkeypatch.setitem(suites_mod.SUITES, "valley", broken)
        result = runner.invoke(cli, ["verify", "valley"])
        assert result.exit_code == 3
        assert "FAIL" in result.output

    def test_artifacts_written(self, runner, tmp_path, monkeypatch):
        from bloomlab import suites as suites_mod

        def with_artifact():
            return SuiteResult(
                "arty",
                [CheckResult("fine", True)],
                artifacts={"table": "a,b\n1,2\n"},
            )

        monkeypatch.setitem(suites_mod.SUITES, "valley", with_artifact)
        result = runner.invoke(
            cli, ["verify", "valley", "--out", str(tmp_path / "reports")]
        )
        assert result.exit_code == 0
        assert (tmp_path / "reports" / "table.csv").read_text() == "a,b\n1,2\n"


class TestMainExitCodes:
    """The `bloomlab` entry point maps errors onto the documented exit codes
    with a one-line message, never a traceback."""

    @staticmethod
    def _run(monkeypatch, capsys, args):
        monkeypatch.setattr(sys, "argv", ["bloomlab", *args])
        with pytest.raises(SystemExit) as exc:
            main()
        return exc.value.code, capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["optimize", "--m", "64", "--n", "0"],
            ["sweep", "--variable", "n", "--start", "0", "--end", "1",
             "--m", "8", "--outputs", "kstar_est"],
            ["simulate", "--m", "8", "--n", "2", "--k", "2", "--probes", "0"],
        ],
    )
    def test_domain_errors_exit_1(self, monkeypatch, capsys, args):
        code, err = self._run(monkeypatch, capsys, args)
        assert code == 1
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("mode", [["--m", "64"], ["--p", "0.01"]])
    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_optimize_without_items_exits_1_before_any_scan(
        self, monkeypatch, capsys, mode, n
    ):
        # the message names the option, and no scan or probe runs first
        calls = []

        def spy(*args):
            calls.append(args)

        monkeypatch.setattr(analytics, "_optimum", spy)
        monkeypatch.setattr(analytics, "_rate_at_most", spy)
        code, err = self._run(monkeypatch, capsys, ["optimize", *mode, "--n", n])
        assert (code, err) == (1, "error: --n must be >= 1\n")
        assert calls == []

    @pytest.mark.parametrize("mode", [["--n", "64"], ["--p", "0.01"]])
    @pytest.mark.parametrize("m", ["0", "-3"])
    def test_optimize_without_bits_exits_1_before_any_scan(
        self, monkeypatch, capsys, mode, m
    ):
        # the message names the option, and no scan or probe runs first
        calls = []

        def spy(*args):
            calls.append(args)

        monkeypatch.setattr(analytics, "_optimum", spy)
        monkeypatch.setattr(analytics, "_rate_at_most", spy)
        code, err = self._run(monkeypatch, capsys, ["optimize", "--m", m, *mode])
        assert (code, err) == (1, "error: --m must be >= 1\n")
        assert calls == []

    @pytest.mark.parametrize(
        "fixed, m, n", [(["--variable", "n", "--m", "0"], 0, 1),
                        (["--variable", "m", "--n", "-1"], 1, -1)],
    )
    def test_sweep_kstar_domain_exits_1_before_any_scan(
        self, monkeypatch, capsys, fixed, m, n
    ):
        # the row checks m and n before its first cell; no scan runs first
        # (B at m = 0 would raise ZeroDivisionError)
        calls = []
        monkeypatch.setattr(analytics, "_optimum", lambda *a: calls.append(a))
        args = ["sweep", *fixed, "--start", "1", "--end", "2", "--outputs",
                "kstar_classic,kstar_standard"]
        code, err = self._run(monkeypatch, capsys, args)
        assert (code, err) == (1, f"error: sweep needs m >= 1, n >= 0; got {m}, {n}\n")
        assert calls == []

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--variable", "n", "--m", "0", "--outputs", "kstar_est"],
             "sweep needs m >= 1, n >= 0; got 0, 1"),
            (["--variable", "n", "--m", "-5", "--outputs", "kstar_est"],
             "sweep needs m >= 1, n >= 0; got -5, 1"),
            # n = 0 is in the k* domain; the closed form alone rejects it
            (["--variable", "m", "--n", "0", "--outputs",
              "kstar_classic,kstar_est"],
             "optimal_k_estimate requires n >= 1"),
            (["--variable", "n", "--m", "0", "--k", "1", "--outputs", "E,exact"],
             "sweep needs m >= 1, n >= 0, k >= 1; got 0, 1, 1"),
            (["--variable", "n", "--m", "0", "--k", "1", "--outputs", "exact,E"],
             "sweep needs m >= 1, n >= 0, k >= 1; got 0, 1, 1"),
            (["--variable", "n", "--m", "0", "--k", "1", "--outputs", "taylor"],
             "sweep needs m >= 1, n >= 0, k >= 1; got 0, 1, 1"),
            # a classic row with k > m is skipped, but only once m is valid
            (["--variable", "n", "--m", "0", "--k", "1", "--outputs", "exact",
              "--variant", "classic"],
             "sweep needs m >= 1, n >= 0, k >= 1; got 0, 1, 1"),
            (["--variable", "k", "--m", "8", "--n", "-1", "--outputs", "U"],
             "sweep needs m >= 1, n >= 0, k >= 1; got 8, -1, 1"),
        ],
    )
    def test_sweep_row_domain_is_checked_before_its_cells(
        self, monkeypatch, capsys, args, message
    ):
        # one message per invalid row, whatever the order of --outputs
        defaults = ["--start", "1", "--end", "2"]
        monkeypatch.setattr(sys, "argv", ["bloomlab", "sweep", *defaults, *args])
        with pytest.raises(SystemExit) as exc:
            main()
        captured = capsys.readouterr()
        assert (exc.value.code, captured.err) == (1, f"error: {message}\n")
        assert captured.out == ""

    def test_sweep_unknown_output_exits_1(self, monkeypatch, capsys):
        code, err = self._run(
            monkeypatch, capsys,
            ["sweep", "--variable", "k", "--start", "1", "--end", "2",
             "--m", "8", "--n", "1", "--outputs", "exact,bogus"],
        )
        assert code == 1
        assert "Error: unknown outputs: bogus" in err

    def test_optimize_at_high_load_exits_0(self, monkeypatch, capsys):
        # m/n < 1/(2 ln 2): the closed-form k rounds to 0; the estimate's
        # rate is taken at the scan's seed, clamped to 1
        args = ["bloomlab", "optimize", "--m", "2", "--n", "5", "--format", "json"]
        monkeypatch.setattr(sys, "argv", args)
        main()  # returns normally: exit 0
        payload = json.loads(capsys.readouterr().out)
        assert [p["variant"] for p in payload] == ["classic", "standard"]
        assert [p["k_exact"] for p in payload] == [1, 1]
        assert all(p["fpr_at_estimate"] == p["fpr_exact"] for p in payload)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_huge_exact_fraction_exits_0(self, monkeypatch, capsys, fmt):
        args = ["bloomlab", "analyze", "--m", "1024", "--n", "64", "--k", "22",
                "--format", fmt]
        monkeypatch.setattr(sys, "argv", args)
        main()  # returns normally: exit 0
        out = capsys.readouterr().out
        if fmt == "json":
            exact = Fraction(json.loads(out)["exact_fraction"])
            assert exact == analytics.fpr_exact(1024, 64, 22, FilterVariant.STANDARD)
            assert len(str(exact.denominator)) > 4300
        else:
            # a 40-digit-plus denominator is not printed
            assert "exact fpr      1.71758e-03\n" in out

    def test_build_beyond_wire_format_exits_1(self, monkeypatch, capsys, tmp_path):
        # m = 2^64 + 1 does not fit the header's u64 field
        out = tmp_path / "f.blm"
        args = ["build", "--m", str(2**64 + 1), "--k", "3", "--out", str(out)]
        code, err = self._run(monkeypatch, capsys, args)
        assert code == 1
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["info", "insert", "query"])
    def test_missing_filter_file_exits_2(self, monkeypatch, capsys, tmp_path, command):
        path = tmp_path / "absent.bf"
        code, err = self._run(monkeypatch, capsys, [command, str(path)])
        assert code == 2
        assert err.startswith("error: ") and "absent.bf" in err
        assert "Traceback" not in err
        assert not path.exists()

    @pytest.mark.parametrize("command", ["insert", "query"])
    def test_missing_input_file_exits_2(self, monkeypatch, capsys, tmp_path, command):
        path = tmp_path / "f.bf"
        build = ["bloomlab", "build", "--m", "64", "--k", "2", "--out", str(path)]
        monkeypatch.setattr(sys, "argv", build)
        main()  # returns normally: exit 0
        before = path.read_bytes()
        missing = str(tmp_path / "absent.txt")
        code, err = self._run(monkeypatch, capsys, [command, str(path), "--input", missing])
        assert code == 2
        assert err.startswith("error: ") and "absent.txt" in err
        assert path.read_bytes() == before

    def test_unwritable_output_exits_2(self, monkeypatch, capsys, tmp_path):
        out = tmp_path / "missing" / "f.blm"
        args = ["build", "--m", "64", "--k", "2", "--out", str(out)]
        code, err = self._run(monkeypatch, capsys, args)
        assert code == 2
        assert err.startswith("error: ")
        assert not out.exists()



# small and invalid values for the generated contract test; m reaches 40,
# where capacity targets down to 1e-3 become reachable
_INTS = st.integers(-1, 6)
_BITS = st.integers(-1, 40)
_RATES = st.sampled_from(["-1", "0", "1e-3", "0.1", "0.5", "1", "2", "nan", "inf"])
_VARIANTS = st.sampled_from([[], ["--variant", "classic"], ["--variant", "standard"]])
_FORMATS = st.sampled_from(["text", "json"])


def _opts(**values):
    """["--name", "value", ...] for every value that is not None."""
    return [a for name, v in values.items() if v is not None for a in (f"--{name}", str(v))]


@st.composite
def _analyze_args(draw):
    mnk = _opts(m=draw(_BITS), n=draw(_INTS), k=draw(_INTS))
    return ["analyze", *mnk, *draw(_VARIANTS), "--format", draw(_FORMATS)]


@st.composite
def _optimize_args(draw):
    # the three modes: given (m, n), (m, p) or (n, p)
    given = draw(st.sampled_from([("m", "n"), ("m", "p"), ("n", "p")]))
    strategy = {"m": _BITS, "n": _INTS, "p": _RATES}
    values = {name: draw(strategy[name]) for name in given}
    return ["optimize", *_opts(**values), *draw(_VARIANTS), "--format", draw(_FORMATS)]


@st.composite
def _sweep_args(draw):
    # the swept parameter is left unfixed, so the sweep itself runs; at
    # times one other is missing, or k* and rate outputs are mixed
    variable = draw(st.sampled_from(["k", "n", "m"]))
    fixed = {name: draw(_INTS) for name in ("m", "n", "k") if name != variable}
    fixed[draw(st.sampled_from([variable, variable, *fixed]))] = None
    kstar = sorted(cli_module._KSTAR_OUTPUTS)
    rates = [w for w in cli_module._SWEEP_OUTPUTS if w not in kstar]
    outputs = draw(st.sampled_from([kstar, rates, cli_module._SWEEP_OUTPUTS]).flatmap(
        lambda names: st.lists(st.sampled_from(names), min_size=1, max_size=3)))
    start = draw(_INTS)
    span = _opts(start=start, end=start + draw(st.integers(-1, 4)), step=draw(st.integers(0, 3)))
    return ["sweep", "--variable", variable, *span, *_opts(**fixed), *draw(_VARIANTS),
            "--outputs", ",".join(outputs)]


@st.composite
def _simulate_args(draw):
    mnk = _opts(m=draw(_BITS), n=draw(_INTS), k=draw(_INTS))
    counts = st.integers(0, 3)
    runs = _opts(trials=draw(counts), probes=draw(counts), seed=draw(_INTS))
    fmt = draw(st.sampled_from(["text", "json", "csv"]))
    return ["simulate", *mnk, *runs, *draw(_VARIANTS), "--format", fmt]


class TestGeneratedContract:
    """Every analysis command, on small and invalid arguments, exits with a
    documented code (0, 1, 2 or 3) through the `bloomlab` entry point, never
    with a traceback, and its JSON parses wherever it succeeds."""

    @pytest.mark.parametrize(
        "command", [_analyze_args(), _optimize_args(), _sweep_args(), _simulate_args()],
        ids=["analyze", "optimize", "sweep", "simulate"],
    )
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_exit_code_and_output(self, command, data):
        argv = data.draw(command)
        out, err = io.StringIO(), io.StringIO()
        with patch.object(sys, "argv", ["bloomlab", *argv]):
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    main()
                code = 0
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue(), argv
        if code == 0 and argv[-2:] == ["--format", "json"]:
            json.loads(out.getvalue())
