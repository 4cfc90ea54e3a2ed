import math

from bloomlab.analytics import fpr_exact
from bloomlab.filters import FilterParams, FilterVariant
from bloomlab.montecarlo import (
    TrialConfig,
    conjecture_scan,
    empirical_fpr,
    occupancy_histogram,
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


class TestEmpiricalFpr:
    def test_saturated_single_bit(self):
        result = empirical_fpr(_config(m=1, k=1, n=2, trials=30, probes=5))
        assert result.rate == 1.0

    def test_no_items_no_positives(self):
        result = empirical_fpr(_config(n=0, trials=30, probes=5))
        assert result.rate == 0.0

    def test_agreement_with_exact(self):
        config = _config(trials=2000, probes=20)
        result = empirical_fpr(config)
        exact = float(fpr_exact(32, 8, 3, STD))
        se = math.sqrt(exact * (1 - exact) / result.probes)
        assert abs(result.rate - exact) < 4 * se

    def test_reproducible(self):
        a = empirical_fpr(_config())
        b = empirical_fpr(_config())
        assert a == b

    def test_seed_changes_outcome(self):
        a = empirical_fpr(_config(rng_seed=1))
        b = empirical_fpr(_config(rng_seed=2))
        assert a.positives != b.positives  # 2000 Bernoulli draws; collision absurd

    def test_parallel_merge_matches_serial(self):
        config = _config(trials=200)
        assert run_trials(config, workers=2) == run_trials(config, workers=1)


class TestHistogram:
    def test_classic_single_batch_point_mass(self):
        h = occupancy_histogram(_config(m=8, k=3, variant=CLS, n=1, trials=50,
                                        probes=0))
        assert h.counts == {3: 50}
        assert h.p_value == 1.0

    def test_single_bin_fit_is_perfect(self):
        # four trials merge every bin into one (dof 0); observed and expected
        # totals are both 4, so the statistic is rounding noise, not misfit
        config = _config(m=128, k=4, variant=CLS, n=24, trials=4, probes=1)
        h = occupancy_histogram(config)
        assert h.dof == 0
        assert h.p_value == 1.0
        assert run_validation([config])[0].chi2_p == 1.0

    def test_chi_square_against_exact_law(self):
        h = occupancy_histogram(_config(m=16, k=2, variant=STD, n=4,
                                        trials=5000, probes=0))
        assert h.p_value > 1e-4
        se = math.sqrt(h.exact_var / 5000)
        assert abs(h.mean - h.exact_mean) < 4 * se


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

    def test_csv_round(self):
        report = conjecture_scan([64], [4], k_values=[(64, 5)])
        lines = report.to_csv().splitlines()
        assert lines[0] == "check,m,n_or_k,k_classic,k_standard,lower,upper,ok"
        assert lines[1].startswith("ordering,64,4,9,10,")
        assert lines[2].startswith("peak-monotone,64,5,")
