import math
from collections import Counter

import pytest

from bloomlab import montecarlo
from bloomlab.analytics import fpr_exact
from bloomlab.filters import FilterParams, FilterVariant
from bloomlab.montecarlo import (
    TrialConfig,
    _chi2,
    _chi_square_merged,
    _exact_pmf,
    conjecture_scan,
    run_trials,
    run_validation,
    validation_csv,
    validation_suite,
    validation_summary,
)

STD = FilterVariant.STANDARD
CLS = FilterVariant.CLASSIC


def _config(m=32, k=3, variant=STD, n=8, trials=400, probes=10, rng_seed=11,
            hash_seed=5):
    return TrialConfig(
        params=FilterParams(m=m, k=k, variant=variant, seed=hash_seed),
        n=n,
        trials=trials,
        probes=probes,
        rng_seed=rng_seed,
    )


def _full_range_fit(config: TrialConfig, hist: Counter) -> tuple[float, int]:
    """(p-value, dof) of the chi-square fit over every bit sum 0..m."""
    m = config.params.m
    expected = [config.trials * float(_exact_pmf(config.params, config.n, i))
                for i in range(m + 1)]
    observed = [hist.get(i, 0) for i in range(m + 1)]
    stat, dof = _chi_square_merged(observed, expected)
    return (1.0 if dof < 1 else _chi2.sf(stat, dof)), dof


class TestEmpiricalFpr:
    def test_saturated_single_bit(self):
        row = run_validation([_config(m=1, k=1, n=2, trials=30, probes=5)])[0]
        assert row.empirical == 1.0

    def test_no_items_no_positives(self):
        row = run_validation([_config(n=0, trials=30, probes=5)])[0]
        assert row.empirical == 0.0
        assert row.mean_empirical == 0.0

    def test_agreement_with_exact(self):
        row = run_validation([_config(trials=2000, probes=20)])[0]
        assert row.exact == float(fpr_exact(32, 8, 3, STD))
        assert row.std_err > 0
        assert abs(row.empirical - row.exact) < 4 * row.std_err

    def test_reproducible(self):
        assert run_trials(_config()) == run_trials(_config())
        assert run_validation([_config()]) == run_validation([_config()])

    def test_seed_changes_outcome(self):
        a, _, _ = run_trials(_config(rng_seed=1))
        b, _, _ = run_trials(_config(rng_seed=2))
        assert a != b  # 4000 Bernoulli draws; collision absurd

    def test_workers_other_than_one_rejected_before_any_trial(self, monkeypatch):
        config = _config(trials=200)
        assert run_validation([config], workers=1) == run_validation([config])

        def no_trials(config):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(montecarlo, "run_trials", no_trials)
        for workers in (0, 2):
            with pytest.raises(ValueError, match="one process"):
                run_validation([config], workers=workers)

    def test_probeless_config_rejected_before_any_trial(self, monkeypatch):
        calls = []
        monkeypatch.setattr(montecarlo, "run_trials", calls.append)
        with pytest.raises(ValueError, match="at least one probe"):
            run_validation([_config(), _config(probes=0)])
        assert calls == []


class TestHistogram:
    def test_classic_single_batch_point_mass(self):
        config = _config(m=8, k=3, variant=CLS, n=1, trials=50, probes=1)
        _, _, hist = run_trials(config)
        assert hist == {3: 50}
        row = run_validation([config])[0]
        assert row.chi2_p == 1.0
        assert row.mean_empirical == 3.0

    def test_single_bin_fit_is_perfect(self):
        # four trials merge every bin into one (dof 0); observed and expected
        # totals are both 4, so the statistic is rounding noise, not misfit
        config = _config(m=128, k=4, variant=CLS, n=24, trials=4, probes=1)
        _, _, hist = run_trials(config)
        assert _full_range_fit(config, hist) == (1.0, 0)
        assert run_validation([config])[0].chi2_p == 1.0

    def test_chi_square_against_exact_law(self):
        row = run_validation([_config(m=16, k=2, variant=STD, n=4,
                                      trials=5000, probes=1)])[0]
        assert row.chi2_p > 1e-4
        assert abs(row.mean_z) < 4


class TestFitSupport:
    """The fit stops at the largest reachable bit sum, min(m, n*k)."""

    def test_exact_pmf_only_on_the_support(self, monkeypatch):
        calls = []

        def counting(params, n, i):
            calls.append(i)
            return _exact_pmf(params, n, i)

        monkeypatch.setattr(montecarlo, "_exact_pmf", counting)
        for variant in (STD, CLS):
            calls.clear()
            run_validation([_config(m=64, k=3, variant=variant, n=2,
                                    trials=20, probes=1)])
            assert 0 < len(calls) <= 2 * 3 + 1

    @pytest.mark.parametrize(
        "m,k,n,variant",
        [(16, 2, 3, STD), (16, 3, 2, CLS), (32, 3, 8, STD), (32, 3, 8, CLS),
         (24, 4, 9, STD), (12, 5, 1, CLS)],
    )
    def test_matches_full_range_fit(self, m, k, n, variant):
        config = _config(m=m, k=k, variant=variant, n=n, trials=300)
        _, _, hist = run_trials(config)
        p, _ = _full_range_fit(config, hist)
        assert run_validation([config])[0].chi2_p == p


# (x, dof, P[chi-square(dof) > x]) from scipy.stats.chi2.sf (scipy 1.17.1)
_CHI2_SF_REFERENCE = [
    (0.001, 1, 0.9747728793699604),
    (0.5, 1, 0.47950012218695337),
    (3.84, 1, 0.05004352124870519),
    (60.0, 1, 9.485737571073857e-15),
    (1e-06, 2, 0.999999500000125),
    (10.0, 2, 0.006737946999085468),
    (317.7, 2, 1.0287777185813497e-69),
    (0.1, 3, 0.9918374237318764),
    (7.81, 3, 0.05010605635000589),
    (9.49, 4, 0.049953131223294894),
    (50.0, 4, 3.610865404890647e-10),
    (11.07, 5, 0.050009618622405425),
    (100.0, 5, 5.285148360943219e-20),
    (350.0, 7, 1.2322461361567916e-71),
    (2.0, 10, 0.9963401531726563),
    (20.0, 10, 0.029252688076961124),
    (30.0, 25, 0.22428900483440378),
    (45.0, 31, 0.0498501151481234),
    (80.0, 40, 0.0001763028977385677),
    (300.0, 50, 2.3141364165140704e-37),
    (1.0, 300, 1.0),
    (320.0, 300, 0.2043738117656775),
    (999.0, 1000, 0.502975706170884),
    (1100.0, 1001, 0.015449202539736796),
    (4900.0, 4999, 0.8389210217650919),
    (5000.0, 5000, 0.4973403788923451),
    (5300.0, 5000, 0.0015958249441347303),
]


class TestChi2Tail:
    @pytest.mark.parametrize("x,dof,p", _CHI2_SF_REFERENCE)
    def test_matches_reference(self, x, dof, p):
        assert _chi2.sf(x, dof) == pytest.approx(p, rel=1e-11)

    @pytest.mark.parametrize("dof", [1, 2, 3, 10, 5000])
    def test_zero_statistic(self, dof):
        assert _chi2.sf(0.0, dof) == 1.0

    def test_large_dof_does_not_underflow(self):
        # e^(-x/2) alone is 0.0 in floating point here
        assert math.exp(-5000 / 2) == 0.0
        assert _chi2.sf(5000.0, 5000) == pytest.approx(0.49734, abs=1e-5)

    def test_never_above_one(self):
        assert all(_chi2.sf(x / 10, dof) <= 1.0
                   for x in range(1, 200) for dof in (1, 2, 7, 40))


class TestValidation:
    def test_suite_shape(self):
        configs = validation_suite()
        assert len(configs) >= 12
        assert {c.params.m for c in configs} == {16, 32, 64, 128}
        assert {c.params.variant for c in configs} == {STD, CLS}

    def test_csv_schema(self):
        rows = run_validation([_config(trials=50)])
        text = validation_csv(rows)
        header = text.splitlines()[0]
        assert header == "m,n,k,variant,exact,empirical,std_err,z_score"
        first = text.splitlines()[1].split(",")
        assert first[:4] == ["32", "8", "3", "standard"]
        assert len(first) == 8

    def test_summary_mentions_worst_z(self):
        rows = run_validation([_config(trials=50)])
        assert "worst |z|" in validation_summary(rows)


class TestConjectureScan:
    def test_known_cells_pass(self):
        report = conjecture_scan([64], [4], k_values=[(64, 5)])
        row = report.ordering[0]
        assert (row.k_classic, row.k_standard) == (9, 10)
        assert row.ok
        assert report.monotonicity[0].ok
        assert all(r.ok for r in report.ordering + report.monotonicity)

    def test_tie_cell_uses_range(self):
        report = conjecture_scan([255], [1])
        row = report.ordering[0]
        assert (row.k_classic, row.k_classic_max) == (127, 128)
        assert row.ok

    def test_small_ratio_expects_k1(self):
        report = conjecture_scan([2], [4])
        row = report.ordering[0]
        assert row.ok and row.k_classic == 1 and row.k_standard == 1

    def test_counterexample_cell_is_reported_not_raised(self):
        # (m=26, n=12) genuinely inverts the conjectured k*_C <= k*_S
        report = conjecture_scan([26], [12])
        row = report.ordering[0]
        assert (row.k_classic, row.k_standard) == (2, 1)
        assert not row.ok
        assert sum(not r.ok for r in report.ordering + report.monotonicity) == 1

    def test_each_peak_is_computed_once(self, monkeypatch):
        real = montecarlo.peak_efficiency
        calls = []
        monkeypatch.setattr(
            montecarlo, "peak_efficiency",
            lambda m, k, variant: calls.append((m, k)) or real(m, k, variant),
        )
        # adjacent rows share a peak; a repeated row shares both
        k_values = [(32, k) for k in range(1, 6)] + [(32, 3), (20, 2)]
        report = conjecture_scan([], [], k_values=k_values)
        assert sorted(calls) == sorted({(m, j) for m, k in k_values for j in (k, k + 1)})
        for (m, k), row in zip(k_values, report.monotonicity, strict=True):
            assert (row.m, row.k) == (m, k)
            assert row.eps_k == real(m, k, CLS).epsilon
            assert row.eps_next == real(m, k + 1, CLS).epsilon

    @pytest.mark.parametrize("m_values, n_values, named", [
        ([5], [0], "got n=0"),
        ([5, 0], [1], "got m=0"),
        (range(1, 4), [2, -1], "got n=-1"),
    ])
    def test_sizes_below_one_rejected_before_any_cell(
        self, monkeypatch, m_values, n_values, named
    ):
        calls = []
        monkeypatch.setattr(montecarlo, "optimal_k", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=named):
            conjecture_scan(m_values, n_values)
        assert calls == []

    def test_csv_round(self):
        report = conjecture_scan([64], [4], k_values=[(64, 5)])
        lines = report.to_csv().splitlines()
        assert lines[0] == "check,m,n_or_k,k_classic,k_standard,lower,upper,ok"
        assert lines[1].startswith("ordering,64,4,9,10,")
        assert lines[2].startswith("peak-monotone,64,5,")
