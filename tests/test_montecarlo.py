"""Monte Carlo engine tests.

The frozen success counts are exact: the engine is deterministic in
(seed, config), so any drift in the generator, the block layout, or
the decision logic changes a count and fails the pin. Each pinned
count was also checked to sit within three binomial sigmas of its
closed-form truth before freezing; those truth checks are asserted
here too so the pins can never drift away from the physics.
"""

from __future__ import annotations

import math
from collections import Counter
from concurrent.futures import Future

import numpy as np
import pytest
from scipy.special import gammaincc
from scipy.stats import chi2, ncx2

from crn_sense import montecarlo
from crn_sense.detector import (
    BisectionConfig,
    Decision,
    ThresholdPair,
    bisection_optimum_threshold,
    double_threshold_decide,
    resolve_fuzzy,
)
from crn_sense.montecarlo import (
    BLOCK_TRIALS,
    CollisionRow,
    EmpiricalReport,
    GenerativeModel,
    RateEstimate,
    TrialConfig,
    _bisect_array,
    _statistics,
    collision_sweep,
    count_band,
    draw_statistics,
    estimate_double,
    estimate_single,
    roc_empirical,
)
from crn_sense.signal_model import Hypothesis, SensingParams, SignalMode

SNR = 10.0 ** (-1.4)


def three_sigma(n: int, p: float) -> float:
    return 3.0 * math.sqrt(p * (1.0 - p) / n)


class TestRateEstimate:
    def test_rate_and_ci(self):
        est = RateEstimate(successes=250, trials=1000)
        assert est.rate == 0.25
        assert est.ci95_halfwidth == pytest.approx(1.96 * math.sqrt(0.25 * 0.75 / 1000))

    def test_degenerate_ci_is_zero(self):
        assert RateEstimate(0, 100).ci95_halfwidth == 0.0
        assert RateEstimate(100, 100).ci95_halfwidth == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RateEstimate(successes=5, trials=0)
        with pytest.raises(ValueError):
            RateEstimate(successes=11, trials=10)
        with pytest.raises(ValueError):
            RateEstimate(successes=-1, trials=10)


class TestTrialConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrialConfig(num_trials=0, seed=1)
        with pytest.raises(ValueError):
            TrialConfig(num_trials=10, seed=-1)
        with pytest.raises(ValueError):
            TrialConfig(num_trials=10, seed=2**64)
        with pytest.raises(ValueError):
            TrialConfig(num_trials=10, seed=1, parallel_chunks=0)
        with pytest.raises(ValueError):
            TrialConfig(num_trials=10, seed=1, mode="baseband")
        with pytest.raises(ValueError):
            TrialConfig(num_trials=10, seed=1, model="chisq")

    def test_defaults(self):
        config = TrialConfig(num_trials=10, seed=1)
        assert config.model is GenerativeModel.SAMPLE
        assert config.mode is SignalMode.BASEBAND_BPSK
        assert config.parallel_chunks == 1


class TestDeterminism:
    def test_same_config_same_counts(self):
        config = TrialConfig(num_trials=3000, seed=42, model=GenerativeModel.CHISQ)
        a = estimate_single(10.0, config, Hypothesis.H0)
        b = estimate_single(10.0, config, Hypothesis.H0)
        assert a == b

    def test_chunk_count_is_invisible(self):
        # worker threads only pick blocks, never how one is generated
        base = dict(num_trials=10 * BLOCK_TRIALS + 17, seed=9, model=GenerativeModel.CHISQ)
        serial = TrialConfig(**base)
        threaded = TrialConfig(**base, parallel_chunks=4)
        for truth in (Hypothesis.H0, Hypothesis.H1):
            a = _statistics(serial, truth)
            b = _statistics(threaded, truth)
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("cpus, workers", [(2, 2), (None, 1)])
    def test_pool_has_at_most_one_worker_per_cpu(self, monkeypatch, cpus, workers):
        # a stand-in pool records its size and runs each task inline,
        # so no thread is started whatever parallel_chunks asks for
        sizes, tasks = [], []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def submit(self, fn, *args):
                tasks.append(args[-1])
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", InlinePool)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
        base = dict(num_trials=10 * BLOCK_TRIALS + 17, seed=9, model=GenerativeModel.CHISQ)
        pooled = _statistics(TrialConfig(**base, parallel_chunks=10000), Hypothesis.H0)
        assert sizes == [workers] and len(tasks) == workers
        assert sorted(block for blocks in tasks for block in blocks) == list(range(11))
        assert np.array_equal(pooled, _statistics(TrialConfig(**base), Hypothesis.H0))

    def test_prefix_property(self):
        # first k trials of a longer run equal a k-trial run outright
        short = TrialConfig(num_trials=1000, seed=13, model=GenerativeModel.CHISQ)
        stats_short = _statistics(short, Hypothesis.H1)
        stats_long = _statistics(short, Hypothesis.H1, 2500)
        assert np.array_equal(stats_long[:1000], stats_short)

    def test_hypotheses_use_disjoint_streams(self):
        config = TrialConfig(num_trials=500, seed=13, model=GenerativeModel.CHISQ)
        assert not np.array_equal(
            _statistics(config, Hypothesis.H0), _statistics(config, Hypothesis.H1)
        )


class TestEstimateSingle:
    def test_zero_threshold_always_exceeded(self):
        config = TrialConfig(num_trials=2000, seed=3, model=GenerativeModel.CHISQ)
        assert estimate_single(0.0, config, Hypothesis.H0).rate == 1.0

    def test_threshold_validation(self):
        config = TrialConfig(num_trials=10, seed=3)
        with pytest.raises(ValueError):
            estimate_single(-0.5, config, Hypothesis.H0)
        with pytest.raises(ValueError):
            estimate_single(math.inf, config, Hypothesis.H0)

    def test_chisq_frozen_and_true(self):
        config = TrialConfig(num_trials=100000, seed=7, model=GenerativeModel.CHISQ)
        h0 = estimate_single(18.0, config, Hypothesis.H0)
        h1 = estimate_single(18.0, config, Hypothesis.H1)
        assert (h0.successes, h1.successes) == (5621, 5748)
        truth_h0 = float(gammaincc(5, 9.0))
        truth_h1 = float(ncx2.sf(18.0, 10, 2.0 * SNR))
        assert abs(h0.rate - truth_h0) < three_sigma(100000, truth_h0)
        assert abs(h1.rate - truth_h1) < three_sigma(100000, truth_h1)

    def test_sample_frozen_and_true(self):
        # the averaged statistic times M over the noise variance is
        # exactly chi-square with M degrees of freedom under noise,
        # and noncentral with noncentrality M*snr when a BPSK burst
        # is added, so no CLT slack is needed in these checks
        config = TrialConfig(num_trials=20000, seed=7, model=GenerativeModel.SAMPLE)
        h0 = estimate_single(1.0, config, Hypothesis.H0)
        h1 = estimate_single(1.0, config, Hypothesis.H1)
        assert (h0.successes, h1.successes) == (9811, 16093)
        truth_h0 = float(chi2.sf(1000.0, 1000))
        truth_h1 = float(ncx2.sf(1000.0, 1000, 1000.0 * SNR))
        assert abs(h0.rate - truth_h0) < three_sigma(20000, truth_h0)
        assert abs(h1.rate - truth_h1) < three_sigma(20000, truth_h1)

    def test_sample_carrier_mode_same_law(self):
        config = TrialConfig(
            num_trials=20000, seed=7, model=GenerativeModel.SAMPLE, mode=SignalMode.CARRIER_BPSK
        )
        h1 = estimate_single(1.0, config, Hypothesis.H1)
        assert h1.successes == 16132
        truth = float(ncx2.sf(1000.0, 1000, 1000.0 * SNR))
        assert abs(h1.rate - truth) < three_sigma(20000, truth)

    def test_sample_short_window(self):
        config = TrialConfig(
            num_trials=20000, seed=11, model=GenerativeModel.SAMPLE,
            params=SensingParams(num_samples=200),
        )
        h0 = estimate_single(1.2, config, Hypothesis.H0)
        assert h0.successes == 523
        truth = float(chi2.sf(240.0, 200))
        assert abs(h0.rate - truth) < three_sigma(20000, truth)


class TestBisectArray:
    def test_matches_scalar_loop(self):
        pair = ThresholdPair(12.0, 18.0)
        rng = np.random.default_rng(17)
        energies = rng.uniform(12.0, 18.0, size=400)
        for config in (
            BisectionConfig(),
            BisectionConfig(max_iter=7),
            BisectionConfig(max_iter=10),
            BisectionConfig(max_iter=3),
        ):
            resolved = _bisect_array(energies, pair, config)
            for energy, got in zip(energies, resolved):
                want = bisection_optimum_threshold(pair, float(energy), config).lambda_opt
                assert got == want, (config, energy)

    def test_band_edges(self):
        pair = ThresholdPair(12.0, 18.0)
        resolved = _bisect_array(np.array([12.0, 18.0]), pair, BisectionConfig())
        assert resolved[0] == resolved[1] == 17.625


@pytest.fixture(scope="module")
def chisq_draws():
    return draw_statistics(TrialConfig(num_trials=3000, seed=41, model=GenerativeModel.CHISQ))


class TestCountBand:
    @pytest.mark.parametrize("low, high", [(12.0, 18.0), (5.0, 5.0), (2.0, 19.0), (0.0, 30.0)])
    @pytest.mark.parametrize("depth", [1, 4, 9])
    def test_agrees_with_scalar_rules(self, chisq_draws, low, high, depth):
        pair = ThresholdPair(low, high)
        bisection = BisectionConfig(max_iter=depth)
        # band edges, the midpoint and two dyadic points a bisection can land on
        ties = np.array([low, high, (low + high) / 2.0, low + pair.width / 4.0, low + 3.0 * pair.width / 8.0])
        for stats in (*chisq_draws, ties):
            counts = count_band(stats, pair, bisection)
            first = Counter(double_threshold_decide(float(e), pair) for e in stats)
            final = Counter(resolve_fuzzy(float(e), pair, bisection) for e in stats)
            assert counts.above == first[Decision.OCCUPIED]
            assert counts.below == first[Decision.IDLE]
            assert counts.inside == first[Decision.FUZZY]
            assert counts.resolved_occupied == final[Decision.OCCUPIED]


class TestEstimateDouble:
    PAIR = ThresholdPair(12.0, 18.0)
    CONFIG = TrialConfig(num_trials=100000, seed=2024, model=GenerativeModel.CHISQ)

    def test_report_fuzzy_frozen_and_true(self):
        report = estimate_double(self.PAIR, self.CONFIG)
        counts = {name: getattr(report, name).successes for name in
                  ("pf", "pd", "pm", "pc", "pna", "fuzzy_rate_h0", "fuzzy_rate_h1")}
        assert counts == {
            "pf": 2707, "pd": 2815, "pm": 47185, "pc": 35481, "pna": 14250,
            "fuzzy_rate_h0": 11543, "fuzzy_rate_h1": 11704,
        }
        truths = {
            "pf": float(gammaincc(5, 9.0)),
            "pd": float(ncx2.sf(18.0, 10, 2.0 * SNR)),
            "pc": 1.0 - float(ncx2.sf(12.0, 10, 2.0 * SNR)),
            "pna": float(gammaincc(5, 6.0)),
        }
        for name, truth in truths.items():
            rate = getattr(report, name).rate
            assert abs(rate - truth) < three_sigma(50000, truth), name

    def test_bisection_resolve_frozen_and_true(self):
        report = estimate_double(self.PAIR, self.CONFIG, resolver="bisection-resolve")
        assert (report.pf.successes, report.pd.successes) == (8301, 8388)
        # dual route: the dyadic-cell closed form must predict the
        # per-trial resolution, not just vaguely agree with it
        truth_pf, truth_pd = 0.16531596315960714, 0.16973533160491436
        assert abs(report.pf.rate - truth_pf) < three_sigma(50000, truth_pf)
        assert abs(report.pd.rate - truth_pd) < three_sigma(50000, truth_pd)

    def test_resolver_only_touches_fuzzy_trials(self):
        rep = estimate_double(self.PAIR, self.CONFIG)
        res = estimate_double(self.PAIR, self.CONFIG, resolver="bisection-resolve")
        assert rep.fuzzy_rate_h0 == res.fuzzy_rate_h0
        assert rep.fuzzy_rate_h1 == res.fuzzy_rate_h1
        assert rep.pf.successes <= res.pf.successes <= rep.pf.successes + rep.fuzzy_rate_h0.successes
        assert rep.pd.successes <= res.pd.successes <= rep.pd.successes + rep.fuzzy_rate_h1.successes

    def test_count_identities(self):
        rep = estimate_double(self.PAIR, self.CONFIG)
        res = estimate_double(self.PAIR, self.CONFIG, resolver="bisection-resolve")
        # H1 trials split cleanly: below, inside, above
        assert rep.pc.successes + rep.fuzzy_rate_h1.successes + rep.pd.successes == rep.pd.trials
        assert rep.pm.successes == rep.pd.trials - rep.pd.successes
        # after resolution every trial is binary
        assert res.pc.successes == res.pm.successes
        assert res.pna.successes == res.pf.successes

    def test_everything_fuzzy_band(self):
        pair = ThresholdPair(0.0, 1e9)
        config = TrialConfig(num_trials=2000, seed=3, model=GenerativeModel.CHISQ)
        report = estimate_double(pair, config)
        assert report.fuzzy_rate_h0.rate == 1.0
        assert report.fuzzy_rate_h1.rate == 1.0
        assert report.pf.successes == 0
        assert report.pd.successes == 0
        assert report.pc.successes == 0
        assert report.pna.rate == 1.0

    @pytest.mark.parametrize("n", [2, 3, 5, 7, 9, 10, 11])
    def test_odd_split_gives_h1_the_extra_trial(self, n):
        # one rule for both: n_h1 = ceil(n / 2), never round-half-even
        config = TrialConfig(num_trials=n, seed=3, model=GenerativeModel.CHISQ)
        report = estimate_double(self.PAIR, config)
        row = collision_sweep([self.PAIR], [14.5], config)[0]
        assert (report.pf.trials, report.pd.trials) == (n // 2, n - n // 2)
        assert (row.pf.trials, row.pc_double.trials) == (n // 2, n - n // 2)

    def test_errors(self):
        config = TrialConfig(num_trials=10, seed=3)
        with pytest.raises(ValueError):
            estimate_double(self.PAIR, config, resolver="majority-vote")
        with pytest.raises(ValueError):
            estimate_double(self.PAIR, TrialConfig(num_trials=1, seed=3))


class TestRocEmpirical:
    CONFIG = TrialConfig(num_trials=4000, seed=19, model=GenerativeModel.CHISQ)

    def test_zero_threshold_point_is_one_one(self):
        curve = roc_empirical([0.0, 8.0], self.CONFIG)
        bottom = curve.points[-1]  # points run by decreasing threshold
        assert bottom.threshold == 0.0
        assert bottom.pf == 1.0
        assert bottom.pd == 1.0

    def test_monotone_by_construction(self):
        # common random numbers: one draw shared across the grid
        grid = np.linspace(2.0, 30.0, 57)
        curve = roc_empirical(grid, self.CONFIG)
        pfs = [p.pf for p in curve.points]
        pds = [p.pd for p in curve.points]
        assert pfs == sorted(pfs)
        assert pds == sorted(pds)

    def test_deterministic(self):
        grid = [6.0, 12.0, 18.0]
        assert roc_empirical(grid, self.CONFIG) == roc_empirical(grid, self.CONFIG)

    def test_single_point_grid(self):
        curve = roc_empirical([12.0], self.CONFIG)
        assert len(curve) == 1

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            roc_empirical([], self.CONFIG)

    def test_negative_threshold_rejected(self):
        # as in estimate_single: the statistic is an energy, never negative
        with pytest.raises(ValueError):
            roc_empirical([-1.0, 2.0], self.CONFIG)


class TestCollisionSweep:
    CONFIG = TrialConfig(num_trials=20000, seed=5, model=GenerativeModel.CHISQ)

    def test_frozen_rows(self):
        rows = collision_sweep(
            [ThresholdPair(12.0, 18.0), ThresholdPair(8.0, 20.0)], [14.5], self.CONFIG
        )
        assert [row.lambda_opt for row in rows] == [14.625, 14.75]
        assert [(row.pc_double.successes, row.pc_optimum.successes, row.pf.successes)
                for row in rows] == [(7027, 8266, 602), (3684, 6825, 326)]
        assert rows[0].pc_double.trials == 10000
        assert rows[0].pf.trials == 10000

    def test_row_rates_near_truth(self):
        rows = collision_sweep([ThresholdPair(12.0, 18.0)], [14.5], self.CONFIG)
        row = rows[0]
        truth_pc = 1.0 - float(ncx2.sf(12.0, 10, 2.0 * SNR))
        truth_pc_opt = 1.0 - 0.16973533160491436
        truth_pf = float(gammaincc(5, 9.0))
        assert abs(row.pc_double.rate - truth_pc) < three_sigma(10000, truth_pc)
        assert abs(row.pc_optimum.rate - truth_pc_opt) < three_sigma(10000, truth_pc_opt)
        assert abs(row.pf.rate - truth_pf) < three_sigma(10000, truth_pf)

    def test_resolution_only_frees_trials(self):
        # every below-band trial stays idle after resolution
        rows = collision_sweep(
            [ThresholdPair(12.0, 18.0), ThresholdPair(7.0, 22.0)], [14.5], self.CONFIG
        )
        for row in rows:
            assert row.pc_optimum.successes >= row.pc_double.successes

    def test_zero_lower_threshold_never_collides_quietly(self):
        rows = collision_sweep(
            [ThresholdPair(0.0, 24.0)], [12.0],
            TrialConfig(num_trials=2000, seed=6, model=GenerativeModel.CHISQ),
        )
        assert rows[0].pc_double.successes == 0

    def test_scenario_broadcast_and_validation(self):
        pairs = [ThresholdPair(12.0, 18.0), ThresholdPair(8.0, 20.0)]
        with pytest.raises(ValueError):
            collision_sweep(pairs, [14.5, 14.5, 14.5], self.CONFIG)
        with pytest.raises(ValueError):
            collision_sweep([], [14.5], self.CONFIG)

    def test_row_type(self):
        rows = collision_sweep(
            [ThresholdPair(12.0, 18.0)], [14.5],
            TrialConfig(num_trials=1000, seed=1, model=GenerativeModel.CHISQ),
        )
        assert isinstance(rows[0], CollisionRow)
