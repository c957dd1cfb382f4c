import csv
import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from silentspeech import stats
from silentspeech.errors import DataError, NumericalError


def t_sf_quadrature(t, df):
    """Two-tailed p by adaptive quadrature of the t density (independent of
    the incomplete-beta route)."""
    mp.mp.dps = 30
    nu = mp.mpf(df)
    coef = mp.gamma((nu + 1) / 2) / (mp.sqrt(nu * mp.pi) * mp.gamma(nu / 2))
    dens = lambda x: coef * (1 + x * x / nu) ** (-(nu + 1) / 2)
    return float(2 * mp.quad(dens, [abs(t), mp.inf]))


class TestStudentTSf:
    def test_t_zero_gives_one(self):
        for df in (1, 2, 10, 100):
            assert stats.student_t_sf(0.0, df) == 1.0

    def test_cauchy_quartile(self):
        assert abs(stats.student_t_sf(1.0, 1) - 0.5) < 1e-12

    def test_matches_quadrature_oracle(self):
        assert abs(stats.student_t_sf(2.5, 30) - t_sf_quadrature(2.5, 30)) < 1e-9

    def test_quadrature_sweep(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            t = float(rng.uniform(-6, 6))
            df = int(rng.integers(1, 200))
            assert abs(stats.student_t_sf(t, df) - t_sf_quadrature(t, df)) < 1e-9

    def test_symmetric_in_sign(self):
        assert stats.student_t_sf(2.2, 7) == stats.student_t_sf(-2.2, 7)

    def test_monotone_decreasing_in_abs_t(self):
        ts = np.linspace(0, 8, 40)
        ps = [stats.student_t_sf(float(t), 9) for t in ts]
        assert all(ps[i + 1] <= ps[i] for i in range(len(ps) - 1))

    def test_nonfinite_t_rejected(self):
        with pytest.raises(ValueError):
            stats.student_t_sf(float("nan"), 5)


class TestPairedTtest:
    def test_identical_series(self):
        s = stats.PairedSeries(["a", "b", "c"], [1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        res = stats.paired_ttest(s)
        assert res.t == 0.0 and res.p == 1.0

    def test_degenerate_nonzero_differences(self):
        s = stats.PairedSeries(list("abcd"), [2.0, 3.0, 4.0, 5.0], [1.0, 2.0, 3.0, 4.0])
        res = stats.paired_ttest(s)
        assert res.p == 0.0
        assert math.isinf(res.t) and res.t > 0

    def test_overflowing_difference_rejected(self):
        s = stats.PairedSeries(["a", "b", "c"], [1.0, 1e308, 2.0], [0.5, -1e308, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="paired differences.*'b'"):
                stats.paired_ttest(s)

    def test_matches_reference_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(3, 40))
            a = rng.standard_normal(n) * rng.uniform(0.5, 3)
            b = a + rng.standard_normal(n) * rng.uniform(0.1, 2) + rng.uniform(-1, 1)
            res = stats.paired_ttest(stats.PairedSeries([str(i) for i in range(n)], a, b))
            d = a - b
            t_ref = d.mean() / (d.std(ddof=1) / math.sqrt(n))
            assert abs(res.t - t_ref) < 1e-9 * max(1.0, abs(t_ref))
            assert abs(res.p - t_sf_quadrature(t_ref, n - 1)) < 1e-9

    def test_antisymmetric(self):
        rng = np.random.default_rng(2)
        a, b = rng.standard_normal(10), rng.standard_normal(10)
        keys = [str(i) for i in range(10)]
        r1 = stats.paired_ttest(stats.PairedSeries(keys, a, b))
        r2 = stats.paired_ttest(stats.PairedSeries(keys, b, a))
        assert abs(r1.t + r2.t) < 1e-12
        assert abs(r1.p - r2.p) < 1e-12

    def test_shift_invariant(self):
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal(12), rng.standard_normal(12)
        keys = [str(i) for i in range(12)]
        r1 = stats.paired_ttest(stats.PairedSeries(keys, a, b))
        r2 = stats.paired_ttest(stats.PairedSeries(keys, a + 5.0, b + 5.0))
        assert abs(r1.t - r2.t) < 1e-9

    def test_scale_invariant(self):
        """t is scale-free, so differences far from 1 in magnitude neither
        underflow to zero variance nor overflow the moments."""
        keys = ["a", "b", "c"]
        ref = stats.paired_ttest(stats.PairedSeries(keys, [1.0, 2.0, 4.0], [0.0, 0.0, 0.0]))
        assert abs(ref.t - 2.6457513110645907) < 1e-12
        for k in (1e-200, 1e-100, 1e200):
            res = stats.paired_ttest(
                stats.PairedSeries(keys, [k, 2 * k, 4 * k], [0.0, 0.0, 0.0]))
            assert abs(res.t - ref.t) <= 1e-12 * abs(ref.t)
            assert abs(res.p - ref.p) <= 1e-12 * ref.p

    def test_too_short_rejected(self):
        with pytest.raises(DataError):
            stats.PairedSeries(["a"], [1.0], [2.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_value_rejected(self, bad):
        with pytest.raises(DataError, match="key 'b' has a NaN or inf"):
            stats.PairedSeries(["a", "b", "c"], [1.0, 2.0, 3.0], [1.0, bad, 3.0])


class TestHolm:
    def test_hand_computed_stepdown(self):
        out = stats.holm_bonferroni([0.01, 0.04, 0.03], 0.05)
        assert out == [True, False, False]

    def test_all_ones_no_rejections(self):
        out = stats.holm_bonferroni([1.0, 1.0, 1.0], 0.05)
        assert not any(out)

    def test_single_hypothesis_plain_threshold(self):
        assert stats.holm_bonferroni([0.04], 0.05) == [True]
        assert stats.holm_bonferroni([0.06], 0.05) == [False]

    def test_rejections_form_prefix_of_sorted_order(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            ps = rng.uniform(0, 1, size=int(rng.integers(1, 12))).tolist()
            out = stats.holm_bonferroni(ps, 0.1)
            order = sorted(range(len(ps)), key=lambda i: ps[i])
            flags = [out[i] for i in order]
            assert flags == sorted(flags, reverse=True)

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(5)
        ps = rng.uniform(0, 0.2, size=8).tolist()
        lo = stats.holm_bonferroni(ps, 0.01)
        hi = stats.holm_bonferroni(ps, 0.1)
        for a, b in zip(lo, hi):
            assert (not a) or b

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            stats.holm_bonferroni([], 0.05)


class TestPearson:
    def test_perfect_positive(self):
        x = np.arange(10, dtype=float)
        assert abs(stats.pearson_r(x, 2 * x + 3) - 1.0) < 1e-12

    def test_perfect_negative(self):
        x = np.arange(10, dtype=float)
        assert abs(stats.pearson_r(x, -x) + 1.0) < 1e-12

    def test_matches_definition_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(2, 50))
            x = rng.standard_normal(n)
            y = rng.standard_normal(n) + 0.3 * x
            if np.ptp(x) == 0 or np.ptp(y) == 0:
                continue
            cov = np.mean((x - x.mean()) * (y - y.mean()))
            ref = cov / (x.std() * y.std())
            assert abs(stats.pearson_r(x, y) - ref) < 1e-12

    def test_affine_invariance_and_sign_flip(self):
        rng = np.random.default_rng(7)
        x, y = rng.standard_normal(20), rng.standard_normal(20)
        r = stats.pearson_r(x, y)
        assert abs(stats.pearson_r(3 * x + 1, y) - r) < 1e-12
        assert abs(stats.pearson_r(-x, y) + r) < 1e-12

    def test_constant_series_rejected(self):
        with pytest.raises(NumericalError):
            stats.pearson_r(np.ones(5), np.arange(5.0))

    def test_non_finite_value_rejected(self):
        """Left unchecked, a NaN made r -1.0."""
        with pytest.raises(DataError, match="NaN or inf"):
            stats.pearson_r([1.0, math.nan, 3.0], [1.0, 2.0, 3.0])


class TestSyllableRate:
    def test_basic(self):
        assert stats.syllable_rate(12, 5.0) == 2.4
        assert stats.syllable_rate(1, 1.0) == 1.0

    def test_zero_duration_rejected(self):
        with pytest.raises(DataError):
            stats.syllable_rate(3, 0.0)

    @pytest.mark.parametrize("duration", [math.nan, math.inf])
    def test_non_finite_duration_rejected(self, duration):
        with pytest.raises(DataError, match="duration must be positive and finite"):
            stats.syllable_rate(3, duration)


class TestModeReport:
    def _metrics(self, modes=("modal", "silent", "whispered"), n=12, seed=8):
        rng = np.random.default_rng(seed)
        utt = {"syllable_rate": {}}
        spk = {"hull_area": {}}
        for j, mode in enumerate(modes):
            utt["syllable_rate"][mode] = {
                f"u{i}": float(2.5 - 0.2 * j + 0.1 * rng.standard_normal())
                for i in range(n)}
            spk["hull_area"][mode] = {
                f"s{i}": float(500 - 10 * j + 5 * rng.standard_normal())
                for i in range(n)}
        return utt, spk

    def test_three_modes_three_tests_per_metric(self):
        utt, spk = self._metrics()
        report = stats.build_mode_report(utt, spk)
        rate_tests = [t for t in report.tests if t.metric == "syllable_rate"]
        hull_tests = [t for t in report.tests if t.metric == "hull_area"]
        assert len(rate_tests) == 3
        assert len(hull_tests) == 3

    def test_unpaired_keys_excluded(self):
        utt, spk = self._metrics(modes=("modal", "silent"))
        del spk["hull_area"]["silent"]["s0"]
        report = stats.build_mode_report(utt, spk)
        assert "s0" in report.excluded_keys
        hull = [t for t in report.tests if t.metric == "hull_area"][0]
        assert hull.n == 11

    def test_difference_table_correlations(self):
        utt, spk = self._metrics(modes=("modal", "silent"))
        rng = np.random.default_rng(9)
        spk["wer"] = {m: {f"s{i}": float(rng.uniform(0.2, 0.8)) for i in range(12)}
                      for m in ("modal", "silent")}
        report = stats.build_mode_report(utt, spk)
        table = report.differences
        assert table is not None
        assert set(table.columns) == {"hull_area", "wer"}
        assert ("hull_area", "wer") in table.correlations

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_non_finite_metric_rejected(self, bad):
        utt, spk = self._metrics()
        spk["hull_area"]["silent"]["s3"] = bad
        with pytest.raises(DataError, match="'hull_area', mode 'silent', key 's3'"):
            stats.build_mode_report(utt, spk)

    def test_overflowing_moments_rejected(self):
        """Finite values whose moments overflow float64 raise DataError
        naming the key, with no numpy warning on the way."""
        spk = {"hull_area": {"modal": {"s0": 1e308, "s1": 1.0, "s2": 2.0},
                             "silent": {"s0": -1e308, "s1": 0.5, "s2": 1.0}}}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="'hull_area', mode 'modal'.*'s0'"):
                stats.build_mode_report({}, spk)

    @pytest.mark.parametrize("k", [1e-200, 1.0, 1e200])
    def test_summary_scale_free(self, k):
        """Summary moments scale with the values: far from 1 in magnitude,
        the squared deviations neither underflow to a zero std nor raise a
        false overflow."""
        spk = {"hull_area": {"modal": {"s0": k, "s1": 2 * k, "s2": 4 * k},
                             "silent": {"s0": 0.0, "s1": 0.0, "s2": 0.0}}}
        report = stats.build_mode_report({}, spk)
        modal = [r for r in report.summaries if r.mode == "modal"][0]
        assert modal.mean / k == pytest.approx(7 / 3, rel=1e-12)
        assert modal.std / k == pytest.approx(math.sqrt(7 / 3), rel=1e-12)

    def test_csv_round_trip(self, tmp_path):
        utt, spk = self._metrics()
        report = stats.build_mode_report(utt, spk)
        stats.write_report_csv(report, tmp_path)
        back = {}
        for name in ("summary", "tests", "differences"):
            with open(tmp_path / f"{name}.csv", newline="") as fh:
                back[name] = list(csv.DictReader(fh))
        assert len(back["summary"]) == len(report.summaries)
        assert len(back["tests"]) == len(report.tests)
        assert len(back["differences"]) == len(report.differences.speakers)
        row = back["tests"][0]
        ref = report.tests[0]
        assert row["metric"] == ref.metric
        assert abs(float(row["t"]) - ref.t) < 1e-9
        assert abs(float(row["p"]) - ref.p) < 1e-9
