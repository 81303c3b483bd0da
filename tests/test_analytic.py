"""Closed-form rate tests.

Frozen constants were computed two ways before being pinned here:
once through scipy (ndtr, gammaincc, ncx2.sf) and once through this
package; the two agree to ~1e-12 and the pins below carry the
package's own output so regressions show up at full precision.
"""

from __future__ import annotations

import math

import pytest
from scipy.special import gammaincc
from scipy.stats import ncx2

from crn_sense.analytic import (
    DoubleThresholdReport,
    RocCurve,
    RocPoint,
    bisection_resolved_rates,
    double_threshold_report,
    pd_gaussian,
    pd_marcum,
    pf_gamma,
    pf_gaussian,
    resolved_occupied_probability,
    roc_analytic,
    threshold_for_target_pf,
)
from crn_sense.detector import (
    BisectionConfig,
    Decision,
    ThresholdPair,
    bisection_optimum_threshold,
    single_threshold_decide,
)
from crn_sense.signal_model import SensingParams

SNR = 10.0 ** (-14.0 / 10.0)  # 0.039810717055349734


class TestPfGaussian:
    def test_frozen(self):
        assert pf_gaussian(1.1, 1.0, 1000) == pytest.approx(0.012673659338734076, abs=1e-15)

    def test_threshold_at_noise_floor_is_half(self):
        assert pf_gaussian(1.0, 1.0, 1000) == 0.5
        assert pf_gaussian(4.0, 4.0, 17) == 0.5

    def test_scale_invariance(self):
        # only the ratio threshold / noise_variance enters
        assert pf_gaussian(1.3, 1.0, 64) == pf_gaussian(2.6, 2.0, 64)

    def test_monotone_in_threshold(self):
        values = [pf_gaussian(lam, 1.0, 500) for lam in (0.8, 0.9, 1.0, 1.1, 1.2)]
        assert values == sorted(values, reverse=True)

    def test_errors(self):
        with pytest.raises(ValueError):
            pf_gaussian(1.0, 0.0, 10)
        with pytest.raises(ValueError):
            pf_gaussian(1.0, 1.0, 0)
        with pytest.raises(ValueError):
            pf_gaussian(math.inf, 1.0, 10)


class TestPdGaussian:
    def test_frozen(self):
        assert pd_gaussian(1.1, 1.0, SNR, 1000) == pytest.approx(0.09760937876765856, abs=1e-15)

    def test_zero_snr_collapses_to_false_alarm(self):
        for lam in (0.8, 1.0, 1.1, 1.5):
            assert pd_gaussian(lam, 1.0, 0.0, 200) == pf_gaussian(lam, 1.0, 200)

    def test_half_at_mean_of_busy_statistic(self):
        # exactly representable snr keeps the argument exactly zero
        assert pd_gaussian(1.5, 1.0, 0.5, 1000) == 0.5
        assert pd_gaussian((1.0 + SNR) * 1.0, 1.0, SNR, 1000) == pytest.approx(0.5, abs=1e-12)

    def test_more_snr_more_detection(self):
        values = [pd_gaussian(1.1, 1.0, g, 500) for g in (0.0, 0.02, 0.05, 0.1, 0.5)]
        assert values == sorted(values)

    def test_errors(self):
        with pytest.raises(ValueError):
            pd_gaussian(1.0, 1.0, -0.1, 10)
        with pytest.raises(ValueError):
            pd_gaussian(math.nan, 1.0, 0.1, 10)


class TestPfGamma:
    def test_frozen(self):
        assert pf_gamma(18.0, 5) == pytest.approx(0.05496364149510491, abs=1e-15)

    def test_zero_threshold_always_alarms(self):
        for u in (1, 2, 5, 10):
            assert pf_gamma(0.0, u) == 1.0

    def test_against_scipy(self):
        for u in (1, 2, 5, 8):
            for lam in (0.1, 1.0, 6.0, 12.0, 18.0, 30.0):
                assert pf_gamma(lam, u) == pytest.approx(float(gammaincc(u, lam / 2.0)), abs=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError):
            pf_gamma(-1.0, 5)
        with pytest.raises(ValueError):
            pf_gamma(1.0, 0)


@pytest.mark.parametrize("u", [2.5, 0, 10**6 + 1, math.inf, math.nan])
def test_chi_square_family_takes_only_integer_orders_1_to_10_6(u):
    with pytest.raises(ValueError, match="integer order"):
        pf_gamma(18.0, u)
    with pytest.raises(ValueError, match="integer order"):
        pd_marcum(18.0, SNR, u)
    assert pf_gamma(18.0, 5.0) == pf_gamma(18.0, 5)
    assert pd_marcum(18.0, SNR, 5.0) == pd_marcum(18.0, SNR, 5)


class TestPdMarcum:
    def test_frozen(self):
        assert pd_marcum(18.0, SNR, 5) == pytest.approx(0.05740523716186763, abs=1e-15)

    def test_zero_threshold_always_detects(self):
        assert pd_marcum(0.0, SNR, 5) == 1.0
        assert pd_marcum(0.0, 2.0, 1) == 1.0

    def test_zero_snr_collapses_to_false_alarm(self):
        for lam in (0.5, 3.0, 9.0, 18.0, 40.0):
            assert pd_marcum(lam, 0.0, 5) == pytest.approx(pf_gamma(lam, 5), abs=1e-15)

    def test_detection_dominates_false_alarm(self):
        for lam in (0.5, 6.0, 12.0, 18.0, 25.0):
            for g in (0.01, SNR, 0.5, 2.0):
                assert pd_marcum(lam, g, 5) >= pf_gamma(lam, 5)

    def test_against_scipy(self):
        # Q_u(a, b) is the survival of a noncentral chi-square with
        # 2u degrees of freedom and noncentrality a^2, evaluated at b^2
        for u in (1, 2, 5):
            for lam in (0.5, 6.0, 12.0, 18.0):
                for g in (0.01, SNR, 1.0):
                    want = float(ncx2.sf(lam, 2 * u, 2.0 * g))
                    assert pd_marcum(lam, g, u) == pytest.approx(want, abs=1e-10)

    def test_errors(self):
        with pytest.raises(ValueError):
            pd_marcum(-0.5, SNR, 5)
        with pytest.raises(ValueError):
            pd_marcum(1.0, -0.1, 5)
        with pytest.raises(ValueError):
            pd_marcum(1.0, SNR, -2)


class TestThresholdForTargetPf:
    def test_frozen(self):
        assert threshold_for_target_pf(0.1, 1.0, 1000) == pytest.approx(1.05731272834458, abs=1e-12)

    def test_half_target_gives_noise_floor(self):
        assert threshold_for_target_pf(0.5, 1.0, 1000) == 1.0
        assert threshold_for_target_pf(0.5, 3.7, 12) == 3.7

    def test_round_trip(self):
        for target in (0.9, 0.5, 0.1, 0.01, 1e-4, 1e-7):
            lam = threshold_for_target_pf(target, 1.0, 1000)
            assert pf_gaussian(lam, 1.0, 1000) == pytest.approx(target, abs=1e-9)

    def test_scales_with_noise_variance(self):
        base = threshold_for_target_pf(0.05, 1.0, 200)
        assert threshold_for_target_pf(0.05, 2.5, 200) == pytest.approx(2.5 * base, rel=1e-14)

    def test_errors(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                threshold_for_target_pf(bad, 1.0, 100)
        with pytest.raises(ValueError):
            threshold_for_target_pf(0.1, -1.0, 100)


class TestDoubleThresholdReport:
    def test_frozen_band_12_18(self):
        report = double_threshold_report(ThresholdPair(12.0, 18.0), SNR, 5)
        assert report.pf == pytest.approx(0.05496364149510491, abs=1e-15)
        assert report.pd == pytest.approx(0.05740523716186763, abs=1e-15)
        assert report.pm == pytest.approx(0.9425947628381324, abs=1e-15)
        assert report.pc == pytest.approx(0.7085492173626607, abs=1e-15)
        assert report.pna == pytest.approx(0.2850565003166312, abs=1e-15)

    def test_pm_identity(self):
        report = double_threshold_report(ThresholdPair(3.0, 9.0), SNR, 5)
        assert report.pm == 1.0 - report.pd

    def test_degenerate_pair_collapses(self):
        # with lambda_low == lambda_high the fuzzy band vanishes:
        # staying quiet below the level while busy is exactly a miss,
        # and sitting above it while idle is exactly a false alarm
        report = double_threshold_report(ThresholdPair(15.0, 15.0), SNR, 5)
        assert report.pc == report.pm
        assert report.pna == report.pf

    def test_zero_lower_threshold(self):
        report = double_threshold_report(ThresholdPair(0.0, 18.0), SNR, 5)
        assert report.pc == 0.0
        assert report.pna == 1.0

    def test_report_validation(self):
        with pytest.raises(ValueError):
            DoubleThresholdReport(pf=0.1, pd=0.2, pm=0.5, pc=0.0, pna=0.0)
        with pytest.raises(ValueError):
            DoubleThresholdReport(pf=1.2, pd=0.2, pm=0.8, pc=0.0, pna=0.0)


class TestRocAnalytic:
    def test_matches_point_functions_gamma(self):
        params = SensingParams()
        grid = [6.0 + 0.5 * k for k in range(40)]
        curve = roc_analytic(grid, params, form="gamma-marcum")
        assert len(curve) == 40
        for point in curve.points:
            scaled = point.threshold / params.noise_variance
            assert point.pf == pf_gamma(scaled, params.time_bandwidth)
            assert point.pd == pd_marcum(scaled, params.snr_linear, params.time_bandwidth)

    def test_matches_point_functions_gaussian(self):
        params = SensingParams(num_samples=500)
        grid = [0.8 + 0.01 * k for k in range(60)]
        curve = roc_analytic(grid, params, form="gaussian")
        for point in curve.points:
            assert point.pf == pf_gaussian(point.threshold, params.noise_variance, 500)
            assert point.pd == pd_gaussian(point.threshold, params.noise_variance, params.snr_linear, 500)

    def test_grid_order_does_not_matter(self):
        params = SensingParams()
        shuffled = [14.0, 9.0, 17.0, 12.0, 10.5]
        curve = roc_analytic(shuffled, params)
        thresholds = [p.threshold for p in curve.points]
        assert thresholds == [17.0, 14.0, 12.0, 10.5, 9.0]

    def test_rates_nondecreasing(self):
        params = SensingParams()
        curve = roc_analytic([2.0 + 0.25 * k for k in range(80)], params)
        pfs = [p.pf for p in curve.points]
        pds = [p.pd for p in curve.points]
        assert pfs == sorted(pfs)
        assert pds == sorted(pds)

    def test_errors(self):
        with pytest.raises(ValueError):
            roc_analytic([], SensingParams())
        with pytest.raises(ValueError):
            roc_analytic([1.0], SensingParams(), form="bogus")


class TestRocCurveValidation:
    def test_rejects_increasing_threshold(self):
        with pytest.raises(ValueError):
            RocCurve(points=(RocPoint(0.1, 0.2, 1.0), RocPoint(0.2, 0.3, 2.0)))

    def test_rejects_out_of_range_rate(self):
        with pytest.raises(ValueError):
            RocCurve(points=(RocPoint(1.5, 0.2, 1.0),))

    def test_rejects_decreasing_rates(self):
        with pytest.raises(ValueError):
            RocCurve(points=(RocPoint(0.3, 0.4, 2.0), RocPoint(0.2, 0.5, 1.0)))

    def test_tolerates_roundoff_wiggle(self):
        curve = RocCurve(points=(RocPoint(0.3, 0.4, 2.0), RocPoint(0.3 - 1e-13, 0.4, 1.0)))
        assert len(curve) == 2


class TestResolvedOccupied:
    def survival_pf(self, x):
        return float(gammaincc(5, x / 2.0))

    def survival_pd(self, x):
        return float(ncx2.sf(x, 10, 2.0 * SNR))

    @staticmethod
    def probe_occupied_probability(pair, config, survival):
        """The resolved detector's occupied probability by running it.

        Each of the 2^d equal cells takes the verdict the scalar
        detector gives its midpoint (midpoints never tie a bisection
        point); the verdicts are returned with the probability.
        """
        cells = 2**config.max_iter
        step = pair.width / cells
        total = survival(pair.lambda_high)
        verdicts = []
        for index in range(cells):
            lo = pair.lambda_low + index * step
            probe = lo + step / 2.0
            resolved = bisection_optimum_threshold(pair, probe, config).lambda_opt
            verdicts.append(single_threshold_decide(probe, resolved))
            if verdicts[-1] is Decision.OCCUPIED:
                total += survival(lo) - survival(lo + step)
        return total, verdicts

    def test_against_parity_oracle(self):
        # independent route: run the scalar bisection on every cell
        # midpoint; its verdict on the k-th of 2^d equal cells must be
        # Occupied exactly when k is odd, the rule the closed form sums
        for lo, hi in [(12.0, 18.0), (8.0, 20.0), (7.0, 22.0), (0.5, 4.0)]:
            pair = ThresholdPair(lo, hi)
            for depth in (1, 2, 3, 4, 5, 6):
                config = BisectionConfig(max_iter=depth)
                for survival in (self.survival_pf, self.survival_pd):
                    got = resolved_occupied_probability(pair, config, survival)
                    want, verdicts = self.probe_occupied_probability(pair, config, survival)
                    odd = [Decision.OCCUPIED if k % 2 else Decision.IDLE for k in range(2**depth)]
                    assert verdicts == odd, (lo, hi, depth)
                    assert got == pytest.approx(want, abs=1e-12), (lo, hi, depth)

    def test_frozen_rates(self):
        pf, pd = bisection_resolved_rates(ThresholdPair(12.0, 18.0), SNR, 5)
        assert pf == pytest.approx(0.16531596315960714, abs=1e-14)
        assert pd == pytest.approx(0.16973533160491436, abs=1e-14)
        pf, pd = bisection_resolved_rates(ThresholdPair(8.0, 20.0), SNR, 5)
        assert pf == pytest.approx(0.31244202992051484, abs=1e-14)
        assert pd == pytest.approx(0.3165138035139382, abs=1e-14)
        pf, pd = bisection_resolved_rates(ThresholdPair(7.0, 22.0), SNR, 5)
        assert pf == pytest.approx(0.3492081991435151, abs=1e-14)
        assert pd == pytest.approx(0.3525949224924668, abs=1e-14)

    def test_frozen_shallow_depth(self):
        config = BisectionConfig(max_iter=2)
        pf, pd = bisection_resolved_rates(ThresholdPair(12.0, 18.0), SNR, 5, config)
        assert pf == pytest.approx(0.15116762971932815, abs=1e-14)
        assert pd == pytest.approx(0.15558545271552918, abs=1e-14)

    def test_bracketed_by_band_edge_survivals(self):
        pair = ThresholdPair(9.0, 21.0)
        for depth in (1, 3, 5):
            got = resolved_occupied_probability(pair, BisectionConfig(max_iter=depth), self.survival_pd)
            assert self.survival_pd(21.0) <= got <= self.survival_pd(9.0)

    def test_degenerate_pair_is_band_edge_survival(self):
        pair = ThresholdPair(15.0, 15.0)
        got = resolved_occupied_probability(pair, BisectionConfig(), self.survival_pf)
        assert got == self.survival_pf(15.0)
