import json
import math
import sys

import pytest
from click.testing import CliRunner

from bloomlab import analytics
from bloomlab.cli import cli, fraction_sci, main
from bloomlab.filters import FilterVariant
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


class TestFractionSci:
    def test_values(self):
        assert fraction_sci(Fraction(0)) == "0"
        assert fraction_sci(Fraction(11, 20)) == "5.50000e-01"
        assert fraction_sci(Fraction(1, 10**50), sig=3) == "1.00e-50"
        assert fraction_sci(Fraction(-3, 4), sig=2) == "-7.5e-01"
        assert fraction_sci(Fraction(999999, 1000), sig=3) == "1.00e+03"

    def test_far_below_float_range(self):
        # 2^2000 = 1.1486e602, so 3/2^2000 = 2.6118e-602
        assert fraction_sci(Fraction(3, 2**2000), sig=3) == "2.61e-602"


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

    def test_invalid_params_usage_error(self, runner):
        result = runner.invoke(cli, ["analyze", "--m", "0", "--n", "1", "--k", "1"])
        assert result.exit_code != 0


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

    def test_unwritable_output_exits_2(self, monkeypatch, capsys, tmp_path):
        out = tmp_path / "missing" / "f.blm"
        args = ["build", "--m", "64", "--k", "2", "--out", str(out)]
        code, err = self._run(monkeypatch, capsys, args)
        assert code == 2
        assert err.startswith("error: ")
        assert not out.exists()
