"""Closed-form rate tests.

Frozen constants were computed two ways before being pinned here:
once through scipy (ndtr, gammaincc, ncx2.sf) and once through this
package; the two agree to ~1e-12 and the pins below carry the
package's own output so regressions show up at full precision.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import gammaincc
from scipy.stats import ncx2

from crn_sense import analytic
from crn_sense.analytic import (
    DoubleThresholdReport,
    RocCurve,
    RocPoint,
    double_threshold_report,
    pd_gaussian,
    pd_marcum,
    pf_gamma,
    pf_gaussian,
    resolved_occupied_probability,
    tails,
    threshold_for_target_pf,
)
from crn_sense.detector import BisectionConfig, ThresholdPair, bisection_optimum_threshold
from crn_sense.reference_tables import COLLISION_ROWS
from crn_sense.signal_model import SensingParams
from crn_sense.specfun import gaussian_q

SNR = 10.0 ** (-14.0 / 10.0)  # 0.039810717055349734
CHISQ_TAILS = tails(SensingParams(snr_db=-14.0, time_bandwidth=5), "gamma-marcum")  # at SNR, order 5, unit noise


def resolved_rates(pair, survivals=CHISQ_TAILS, config=BisectionConfig()):
    """(pf, pd) of the resolved detector: its closed form over each tail of the pair."""
    return tuple(resolved_occupied_probability(pair, config, survival) for survival in survivals)


class TestPfGaussian:
    def test_frozen(self):
        assert pf_gaussian(1.1, 1.0, 1000) == pytest.approx(0.012673659338734076, abs=1e-15)

    @pytest.mark.parametrize("noise_variance", (1.0, 0.3, 2.5))
    def test_is_pd_gaussian_at_zero_snr_to_the_bit(self, noise_variance):
        # and the bits of the formula written out: at zero SNR the
        # subtraction and the variance factor 2 (2 snr + 1) are exact
        x = np.linspace(-1.0, 4.0, 4001) * noise_variance
        for m in (1, 7, 64, 1000, 10**6):
            got = pf_gaussian(x, noise_variance, m)
            assert got.tobytes() == pd_gaussian(x, noise_variance, 0.0, m).tobytes(), m
            assert got.tobytes() == gaussian_q((x / noise_variance - 1.0) * math.sqrt(m / 2.0)).tobytes(), m
            for v in x[::400].tolist():
                assert pf_gaussian(v, noise_variance, m).hex() == pd_gaussian(v, noise_variance, 0.0, m).hex()

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
        report = double_threshold_report(ThresholdPair(12.0, 18.0), CHISQ_TAILS)
        assert report.pf == pytest.approx(0.05496364149510491, abs=1e-15)
        assert report.pd == pytest.approx(0.05740523716186763, abs=1e-15)
        assert report.pm == pytest.approx(0.9425947628381324, abs=1e-15)
        assert report.pc == pytest.approx(0.7085492173626607, abs=1e-15)
        assert report.pna == pytest.approx(0.2850565003166312, abs=1e-15)

    def test_pm_identity(self):
        report = double_threshold_report(ThresholdPair(3.0, 9.0), CHISQ_TAILS)
        assert report.pm == 1.0 - report.pd

    def test_degenerate_pair_collapses(self):
        # with lambda_low == lambda_high the fuzzy band vanishes:
        # staying quiet below the level while busy is exactly a miss,
        # and sitting above it while idle is exactly a false alarm
        report = double_threshold_report(ThresholdPair(15.0, 15.0), CHISQ_TAILS)
        assert report.pc == report.pm
        assert report.pna == report.pf

    def test_zero_lower_threshold(self):
        report = double_threshold_report(ThresholdPair(0.0, 18.0), CHISQ_TAILS)
        assert report.pc == 0.0
        assert report.pna == 1.0

    def test_report_validation(self):
        with pytest.raises(ValueError):
            DoubleThresholdReport(pf=0.1, pd=0.2, pm=0.5, pc=0.0, pna=0.0)
        with pytest.raises(ValueError):
            DoubleThresholdReport(pf=1.2, pd=0.2, pm=0.8, pc=0.0, pna=0.0)


class TestTails:
    @pytest.mark.parametrize("form", ("gaussian", "gamma-marcum"))
    def test_array_levels_give_the_float_bits(self, form):
        params = SensingParams(noise_variance=1.7)
        levels = np.linspace(0.0, 40.0, 81) if form == "gamma-marcum" else np.linspace(0.5, 1.5, 81)
        for survival in tails(params, form):
            got = survival(levels)
            assert isinstance(got, np.ndarray)
            assert got.tolist() == [survival(x) for x in levels.tolist()]

    def test_unknown_form_rejected(self):
        with pytest.raises(ValueError, match="form must be 'gaussian' or 'gamma-marcum', got 'bogus'"):
            tails(SensingParams(), "bogus")

    def test_array_levels_are_checked(self):
        levels = np.array([12.0, -1.0, math.nan])
        with pytest.raises(ValueError, match="threshold must be finite and >= 0, got -1.0"):
            pf_gamma(levels, 5)
        with pytest.raises(ValueError, match="threshold must be finite and >= 0, got -1.0"):
            pd_marcum(levels, SNR, 5)
        with pytest.raises(ValueError, match="threshold must be finite, got nan"):
            pf_gaussian(levels, 1.0, 1000)


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


def recording(survival, args):
    """survival, appending to args each argument it is called with, an array as a list."""

    def recorded(x):
        args.append(x.tolist() if isinstance(x, np.ndarray) else x)
        return survival(x)

    return recorded


class TestResolvedOccupied:
    # survivals of a float or, elementwise, of an ndarray of levels
    def survival_pf(self, x):
        return gammaincc(5, x / 2.0)

    def survival_pd(self, x):
        return ncx2.sf(x, 10, 2.0 * SNR)

    @staticmethod
    def probe_occupied_probability(pair, config, survival):
        """The resolved detector's occupied probability by running it.

        Each of the 2^d equal cells takes the verdict of its midpoint
        against the midpoint's own resolved threshold, True for
        Occupied (midpoints never tie a bisection point); the verdicts
        are returned with the probability.
        """
        cells = 2**config.max_iter
        step = pair.width / cells
        total = survival(pair.lambda_high)
        verdicts = []
        for index in range(cells):
            lo = pair.lambda_low + index * step
            probe = lo + step / 2.0
            resolved = bisection_optimum_threshold(pair, probe, config).lambda_opt
            verdicts.append(probe > resolved)
            if verdicts[-1]:
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
                    odd = [k % 2 == 1 for k in range(2**depth)]
                    assert verdicts == odd, (lo, hi, depth)
                    assert got == pytest.approx(want, abs=1e-12), (lo, hi, depth)

    @staticmethod
    def every_cell_sum(pair, config, survival):
        """The cell sum stepping through every cell, max(0.0, gap) on the odd ones.

        The tails come from one array call over the edges lambda_low +
        index * step and lambda_high (TestArrayArguments pins array and
        float calls to the same bits); the sum is a float loop.
        """
        if pair.width == 0.0:
            return float(survival(np.array([pair.lambda_high]))[0])
        cells = 2**config.max_iter
        step = pair.width / cells
        tails = survival(np.append(pair.lambda_low + np.arange(cells) * step, pair.lambda_high)).tolist()
        total = tail_hi = tails[cells]
        for index in reversed(range(cells)):
            tail_lo = tails[index]
            if index % 2 == 1:
                total += max(0.0, tail_lo - tail_hi)
            tail_hi = tail_lo
        return min(1.0, total)

    def test_equals_the_every_cell_sum_at_depth_11(self):
        # the same edges, the same tails, and the same gaps added in the
        # same order (a gap that is not positive adds nothing either way),
        # so the sums are equal
        bands = [(row.lambda_low, row.lambda_high) for row in COLLISION_ROWS]
        bands += [(12.0, 18.0), (8.0, 20.0), (7.0, 22.0), (0.5, 4.0)]
        # 0.7 + (3.1 - 0.7) rounds off 3.1: the top edge is lambda_high itself
        bands += [(0.7, 3.1)]
        assert 0.7 + (3.1 - 0.7) != 3.1
        config = BisectionConfig(max_iter=11)
        for tail in (lambda x: pf_gamma(x, 5), lambda x: pd_marcum(x, SNR, 5)):
            for lo, hi in bands:
                got_args, want_args = [], []
                got = resolved_occupied_probability(ThresholdPair(lo, hi), config, recording(tail, got_args))
                want = self.every_cell_sum(ThresholdPair(lo, hi), config, recording(tail, want_args))
                assert got == want, (lo, hi)
                # each reads every edge once, in one call, ending on lambda_high
                step = (hi - lo) / 2**11
                assert want_args == [[lo + index * step for index in range(2**11)] + [hi]]
                assert got_args == want_args

    def test_equals_the_every_cell_sum_where_gaps_go_negative(self):
        # a survival that rises in places gives odd cells negative gaps,
        # which both sums must skip
        def wavy(x):
            if isinstance(x, np.ndarray):
                return np.array([wavy(v) for v in x.tolist()])
            return math.exp(-x / 8.0) * (1.0 + 0.5 * math.sin(3.0 * x)) / 1.5

        pair, config = ThresholdPair(2.0, 18.0), BisectionConfig(max_iter=6)
        gaps = [wavy(2.0 + k * 0.25) - wavy(2.0 + (k + 1) * 0.25) for k in range(1, 64, 2)]
        assert min(gaps) < 0.0 < max(gaps)
        assert resolved_occupied_probability(pair, config, wavy) == self.every_cell_sum(pair, config, wavy)

    def test_slices_keep_the_one_slice_bits(self, monkeypatch):
        # depth 12 is one slice of 2^12 + 1 edges; cut into slices of
        # 2^8 cells, carrying the running total, it gives the same sum
        pair, config = ThresholdPair(12.0, 18.0), BisectionConfig(max_iter=12)
        for tail in (lambda x: pf_gamma(x, 5), lambda x: pd_marcum(x, SNR, 5)):
            calls = []
            one_slice = resolved_occupied_probability(pair, config, recording(tail, calls))
            assert [len(levels) for levels in calls] == [2**12 + 1]
            monkeypatch.setattr(analytic, "_SLICE_CELLS", 2**8)
            calls = []
            assert resolved_occupied_probability(pair, config, recording(tail, calls)) == one_slice
            assert [len(levels) for levels in calls] == [2**8 + 1] * 2**4
            monkeypatch.undo()

    @pytest.mark.parametrize(
        "band, snr_db, depth",
        [((12.0, 18.0), -14.0, 16), ((630.0, 660.0), 25.0, 11)],
    )
    def test_memory_stays_bounded(self, band, snr_db, depth):
        # edges go to survival 2^12 + 1 at a time, and each series
        # chunk holds about 2^14 doubles, whatever the depth and SNR
        survivals = tails(SensingParams(snr_db=snr_db, time_bandwidth=5), "gamma-marcum")
        tracemalloc.start()
        try:
            resolved_rates(ThresholdPair(*band), survivals, BisectionConfig(max_iter=depth))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak

    def test_frozen_rates(self):
        pf, pd = resolved_rates(ThresholdPair(12.0, 18.0))
        assert pf == 0.16531596315960714
        assert pd == 0.16973533160491436
        pf, pd = resolved_rates(ThresholdPair(8.0, 20.0))
        assert pf == 0.31244202992051484
        assert pd == 0.3165138035139382
        pf, pd = resolved_rates(ThresholdPair(7.0, 22.0))
        assert pf == 0.3492081991435151
        assert pd == 0.3525949224924668

    def test_frozen_shallow_depth(self):
        config = BisectionConfig(max_iter=2)
        pf, pd = resolved_rates(ThresholdPair(12.0, 18.0), config=config)
        assert pf == 0.15116762971932815
        assert pd == 0.15558545271552918

    def test_bracketed_by_band_edge_survivals(self):
        pair = ThresholdPair(9.0, 21.0)
        for depth in (1, 3, 5):
            got = resolved_occupied_probability(pair, BisectionConfig(max_iter=depth), self.survival_pd)
            assert self.survival_pd(21.0) <= got <= self.survival_pd(9.0)

    def test_degenerate_pair_is_band_edge_survival(self):
        pair = ThresholdPair(15.0, 15.0)
        got = resolved_occupied_probability(pair, BisectionConfig(), self.survival_pf)
        assert got == self.survival_pf(15.0)

    def test_cells_narrower_than_an_ulp_are_refused(self):
        # width 2^-40 at lambda_high ~ 1, whose ulp is 2^-52: depth 12
        # leaves cells of one ulp, depth 13 would split an ulp in two
        pair = ThresholdPair(1.0, 1.0 + 2.0**-40)
        got = resolved_occupied_probability(pair, BisectionConfig(max_iter=12), self.survival_pf)
        assert self.survival_pf(pair.lambda_high) <= got <= self.survival_pf(pair.lambda_low)
        with pytest.raises(ValueError, match=r"max_iter=13 splits band 1\.0\.\.1\.0000000000009095"):
            resolved_occupied_probability(pair, BisectionConfig(max_iter=13), self.survival_pf)
        # on 12..18 the bound sits between depths 50 and 51 (2^50 cells,
        # too many to sum here)
        assert math.ldexp(6.0, -50) >= math.ulp(18.0) > math.ldexp(6.0, -51)
        with pytest.raises(ValueError, match="max_iter=51 splits band 12.0..18.0"):
            resolved_occupied_probability(ThresholdPair(12.0, 18.0), BisectionConfig(max_iter=51), self.survival_pf)
