"""Monte Carlo engine tests.

The frozen success counts are exact: the engine is deterministic in
(seed, config), so any drift in the generator, the block layout, or
the decision logic changes a count and fails the pin. Each pinned
count was also checked to sit within three binomial sigmas of its
closed-form truth before freezing; those truth checks are asserted
here too so the pins can never drift away from the physics.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import threading
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import gammaincc
from scipy.stats import chi2, ncx2

from crn_sense import montecarlo
from crn_sense.analytic import (
    RocPoint,
    pd_gaussian,
    pd_marcum,
    pf_gamma,
    pf_gaussian,
    resolved_occupied_probability,
    tails,
)
from crn_sense.detector import BisectionConfig, ThresholdPair, _cell_edges, bisection_optimum_threshold
from crn_sense.montecarlo import (
    BLOCK_TRIALS,
    BandCounts,
    CollisionRow,
    GenerativeModel,
    RateEstimate,
    TrialConfig,
    _statistics,
    collision_sweep,
    count_band,
    count_bands,
    draw_statistics,
    estimate_double,
    estimate_single,
    roc_empirical,
    roc_table,
)
from crn_sense.signal_model import Hypothesis, SensingParams, SignalMode, block_generator, bpsk_matrix
from oracles import order_rule_threshold, order_rule_trace, verdict_oracle

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
        # seed=1.5 drew seed 1's stream, parallel_chunks=2.5 ran, and
        # num_trials=2000.5 failed as a TypeError at the draw
        for field, value in (("seed", 1.5), ("seed", 1.0), ("num_trials", 2000.5), ("parallel_chunks", 2.5)):
            with pytest.raises(ValueError, match=field):
                TrialConfig(**{"num_trials": 10, "seed": 1, field: value})

    def test_draw_counts_are_validated(self):
        # 2.0 ended in a numpy TypeError
        config = TrialConfig(num_trials=10, seed=1, model=GenerativeModel.CHISQ)
        for n_h0 in (0, 2.0, 2.5):
            with pytest.raises(ValueError, match="count must be an integer >= 1"):
                draw_statistics(config, n_h0, 3)

    def test_defaults(self):
        config = TrialConfig(num_trials=10, seed=1)
        assert config.model is GenerativeModel.SAMPLE
        assert config.mode is SignalMode.BASEBAND_BPSK
        assert config.parallel_chunks == 1


class TestDeterminism:
    def test_same_config_same_counts(self):
        config = TrialConfig(num_trials=3000, seed=42, model=GenerativeModel.CHISQ)
        a = estimate_single(10.0, config, Hypothesis.H0)
        montecarlo._block.cache_clear()
        b = estimate_single(10.0, config, Hypothesis.H0)
        assert a == b

    def test_chunk_count_is_invisible(self):
        # worker threads only pick blocks, never how one is generated
        base = dict(num_trials=10 * BLOCK_TRIALS + 17, seed=9, model=GenerativeModel.CHISQ)
        serial = TrialConfig(**base)
        threaded = TrialConfig(**base, parallel_chunks=4)
        for truth in (Hypothesis.H0, Hypothesis.H1):
            a = _statistics(serial, truth)
            montecarlo._block.cache_clear()
            b = _statistics(threaded, truth)
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("cpus, workers", [(2, 2), (None, 1)])
    def test_pool_has_at_most_one_worker_per_cpu(self, monkeypatch, cpus, workers):
        # a stand-in thread records itself and runs its work inline when
        # started, so no thread is started whatever parallel_chunks asks
        # for; the caller is one of the workers, so one allowed worker
        # runs serially, with no thread at all
        started, indices = [], []

        class InlineThread:
            def __init__(self, target):
                self.target = target

            def start(self):
                started.append(self)
                self.target()

            def join(self):
                pass

        block = montecarlo._block
        monkeypatch.setattr(montecarlo.threading, "Thread", InlineThread)
        monkeypatch.setattr(montecarlo, "_block", lambda *key: indices.append(key[-2]) or block(*key))
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
        base = dict(num_trials=10 * BLOCK_TRIALS + 17, seed=9, model=GenerativeModel.CHISQ)
        pooled = _statistics(TrialConfig(**base, parallel_chunks=10000), Hypothesis.H0)
        assert len(started) == workers - 1
        assert indices == list(range(11))  # every block once, taken in order
        block.cache_clear()
        assert np.array_equal(pooled, _statistics(TrialConfig(**base), Hypothesis.H0))

    def test_workers_share_the_blocks(self, monkeypatch):
        # more workers than cores, switching threads every microsecond:
        # each block is filled exactly once, and the bytes are the serial ones
        indices = []
        block = montecarlo._block
        monkeypatch.setattr(montecarlo, "_block", lambda *key: indices.append(key[-2]) or block(*key))
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 8)
        base = dict(num_trials=40 * BLOCK_TRIALS + 5, seed=11, model=GenerativeModel.CHISQ)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = _statistics(TrialConfig(**base, parallel_chunks=8), Hypothesis.H1)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(indices) == list(range(41))
        block.cache_clear()
        assert threaded.tobytes() == _statistics(TrialConfig(**base), Hypothesis.H1).tobytes()

    def test_worker_failure_reaches_the_caller(self, monkeypatch):
        # one block's fill fails in a worker thread: the caller gets its
        # exception, and every worker has ended by then
        def fill(*key):
            if key[-2] == 3:
                raise MemoryError("Unable to allocate a block")
            return np.zeros(key[-1])

        monkeypatch.setattr(montecarlo, "_block", fill)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        before = threading.active_count()
        config = TrialConfig(num_trials=8 * BLOCK_TRIALS, seed=5, model=GenerativeModel.CHISQ, parallel_chunks=2)
        with pytest.raises(MemoryError, match="Unable to allocate a block"):
            _statistics(config, Hypothesis.H0)
        assert threading.active_count() == before

    def test_prefix_property(self):
        # first k trials of a longer run equal a k-trial run outright
        short = TrialConfig(num_trials=1000, seed=13, model=GenerativeModel.CHISQ)
        stats_short = _statistics(short, Hypothesis.H1)
        montecarlo._block.cache_clear()
        stats_long = _statistics(short, Hypothesis.H1, 2500)
        assert np.array_equal(stats_long[:1000], stats_short)

    @pytest.mark.parametrize(
        "model, field, largest",
        [(GenerativeModel.SAMPLE, "num_samples", 8192), (GenerativeModel.CHISQ, "time_bandwidth", 4096)],
    )
    def test_block_of_more_than_2_23_normals_is_refused(self, model, field, largest, monkeypatch):
        filled = []

        def block(*key):
            filled.append(key[-1])
            return np.zeros(key[-1])

        monkeypatch.setattr(montecarlo, "_block", block)
        config = TrialConfig(num_trials=10, seed=1, model=model, params=SensingParams(**{field: largest}))
        _statistics(config, Hypothesis.H1)
        assert filled == [10]
        config = TrialConfig(num_trials=10, seed=1, model=model, params=SensingParams(**{field: largest + 1}))
        with pytest.raises(ValueError, match=f"{model.value} model: {field}={largest + 1} needs"):
            _statistics(config, Hypothesis.H1)
        assert filled == [10]

    def test_hypotheses_use_disjoint_streams(self):
        config = TrialConfig(num_trials=500, seed=13, model=GenerativeModel.CHISQ)
        assert not np.array_equal(
            _statistics(config, Hypothesis.H0), _statistics(config, Hypothesis.H1)
        )


@pytest.fixture
def drawn(monkeypatch):
    """(hypothesis purpose, block index) of every block drawn from here on."""
    blocks = []
    original = montecarlo.block_generator

    def counting(seed, stream=0):
        blocks.append((stream >> montecarlo._PURPOSE_SHIFT, stream % (1 << montecarlo._PURPOSE_SHIFT)))
        return original(seed, stream)

    monkeypatch.setattr(montecarlo, "block_generator", counting)
    return blocks


class TestBlockMemo:
    """A repeat draw copies blocks from the cached `_block`; only time may differ."""

    @pytest.mark.parametrize("model", list(GenerativeModel))
    @pytest.mark.parametrize("chunks", [1, 2])
    def test_warm_memo_gives_cold_bytes(self, drawn, model, chunks):
        # 3 full blocks and a 100-row one; 1025 trials end on a 1-row
        # block, 2048 on two blocks the longer run cached in full
        config = TrialConfig(
            num_trials=3 * BLOCK_TRIALS + 100, seed=31, model=model,
            params=SensingParams(num_samples=16), parallel_chunks=chunks,
        )
        counts = (config.num_trials, BLOCK_TRIALS + 1, 2 * BLOCK_TRIALS)
        for truth in Hypothesis:
            purpose = 0 if truth is Hypothesis.H0 else 1
            cold = {}
            for count in counts:
                montecarlo._block.cache_clear()
                cold[count] = _statistics(config, truth, count).tobytes()
            montecarlo._block.cache_clear()
            drawn.clear()
            for count in counts:
                assert _statistics(config, truth, count).tobytes() == cold[count], (truth, count)
            # each (index, rows) drawn once: block 1 in full and as 1 row
            assert Counter(drawn) == {(purpose, 0): 1, (purpose, 1): 2, (purpose, 2): 1, (purpose, 3): 1}
            drawn.clear()
            assert _statistics(config, truth).tobytes() == cold[config.num_trials]
            assert drawn == []  # the 100-row block was cached too

    def test_returned_arrays_belong_to_the_caller(self):
        config = TrialConfig(num_trials=2 * BLOCK_TRIALS, seed=3, model=GenerativeModel.CHISQ)
        h0, h1 = draw_statistics(config)
        want = h0.tobytes(), h1.tobytes()
        h0[:] = -1.0
        h1[:] = np.inf
        assert tuple(a.tobytes() for a in draw_statistics(config)) == want
        assert montecarlo._block.cache_info().hits == 4
        for truth, index in itertools.product(Hypothesis, range(2)):
            block = montecarlo._block(config.seed, config.params, config.model, config.mode, truth, index, BLOCK_TRIALS)
            with pytest.raises(ValueError, match="read-only"):
                block[0] = 0.0

    def test_partial_block_is_cached_under_its_size(self, drawn):
        config = TrialConfig(num_trials=BLOCK_TRIALS + 5, seed=8, model=GenerativeModel.CHISQ)
        stats = _statistics(config, Hypothesis.H1)
        assert _statistics(config, Hypothesis.H1).tobytes() == stats.tobytes()
        assert drawn == [(1, 0), (1, 1)]
        # a longer run draws block 1 in full; the 5-row block is its head
        longer = _statistics(config, Hypothesis.H1, 2 * BLOCK_TRIALS)
        assert drawn == [(1, 0), (1, 1), (1, 1)]
        assert longer[: config.num_trials].tobytes() == stats.tobytes()
        # one row at the block bound fills one row, and caches 8 bytes
        montecarlo._block.cache_clear()
        wide = TrialConfig(num_trials=1, seed=8, params=SensingParams(num_samples=8192))
        assert _statistics(wide, Hypothesis.H0).shape == (1,)
        assert montecarlo._block(wide.seed, wide.params, wide.model, wide.mode, Hypothesis.H0, 0, 1).nbytes == 8
        assert montecarlo._block.cache_info().hits == 1

    def test_eviction_is_lru_within_the_bound(self, drawn, monkeypatch):
        # the real cache: 4,096 entries of at most 8 KiB, 32 MiB
        assert montecarlo._block.cache_parameters() == {"maxsize": 4096, "typed": False}
        config = TrialConfig(num_trials=3 * BLOCK_TRIALS, seed=12, model=GenerativeModel.CHISQ)
        cold = _statistics(config, Hypothesis.H0).tobytes()
        cache = functools.lru_cache(maxsize=3)(montecarlo._block.__wrapped__)
        monkeypatch.setattr(montecarlo, "_block", cache)

        def draw(count):
            """Indices of the blocks a `count`-trial draw had to draw."""
            drawn.clear()
            assert _statistics(config, Hypothesis.H0, count).tobytes() == cold[: 8 * count]
            assert cache.cache_info().currsize <= 3
            return [index for _, index in drawn]

        # the comments list the cache, least recently used first
        assert draw(3 * BLOCK_TRIALS) == [0, 1, 2]  # 0 1 2
        assert draw(BLOCK_TRIALS) == []  # 1 2 0
        # block 1's first 6 rows push out block 1, the least recently
        # used; FIFO would have pushed out block 0, the oldest
        assert draw(BLOCK_TRIALS + 6) == [1]  # 2 0 1'
        assert draw(2 * BLOCK_TRIALS) == [1]  # 1' 0 1
        assert draw(3 * BLOCK_TRIALS) == [2]  # 0 1 2

    def test_user_threads_get_the_same_rates(self, monkeypatch):
        # more threads than cores, switching often, on a cache too small
        # for the config's 9 blocks, so the threads' lookups, stores
        # and evictions interleave
        config = TrialConfig(num_trials=8 * BLOCK_TRIALS + 7, seed=23, model=GenerativeModel.CHISQ)
        stats = _statistics(config, Hypothesis.H1)
        cold = estimate_single(12.0, config, Hypothesis.H1)
        cache = functools.lru_cache(maxsize=5)(montecarlo._block.__wrapped__)
        monkeypatch.setattr(montecarlo, "_block", cache)
        barrier = threading.Barrier(4)

        def rates(_):
            barrier.wait(timeout=60)
            return [estimate_single(12.0, config, Hypothesis.H1) for _ in range(3)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(rates, thread) for thread in range(4)]
                got = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == [[cold] * 3] * 4
        assert 0 < cache.cache_info().currsize <= 5
        # every thread used block 8 last, so the newest first are hits
        hits = cache.cache_info().hits
        for index in reversed(range(9)):
            start = index * BLOCK_TRIALS
            rows = min(BLOCK_TRIALS, config.num_trials - start)
            block = cache(config.seed, config.params, config.model, config.mode, Hypothesis.H1, index, rows)
            assert block.tobytes() == stats[start : start + rows].tobytes(), index
        assert cache.cache_info().hits > hits

    def test_library_calls_draw_each_full_block_once(self, drawn):
        # the calls a demo makes on one config, each asking for its
        # statistics again; 6 full blocks and a 200-row one
        config = TrialConfig(num_trials=6 * BLOCK_TRIALS + 200, seed=4, model=GenerativeModel.CHISQ)
        pair = ThresholdPair(12.0, 18.0)
        for truth in Hypothesis:
            for threshold in (10.0, 14.0, 18.0):
                estimate_single(threshold, config, truth)
        for resolver in ("report-fuzzy", "bisection-resolve"):
            estimate_double(pair, config, resolver=resolver)
        collision_sweep([pair, ThresholdPair(8.0, 20.0)], [14.5], config)
        roc_empirical([float(k) for k in range(31)], config)
        # each (index, rows) once: block 3 in full, and as the 100-row
        # last block of the calls that split the trials in halves
        assert Counter(drawn) == {
            (purpose, index): 1 + (index == 3) for purpose in (0, 1) for index in range(7)
        }


def whole_block_statistics(
    config: TrialConfig,
    truth: Hypothesis,
    count: int,
    radii: bool = True,
    tangent: bool = True,
    full_scale: bool = False,
) -> np.ndarray:
    """The block fill as it was before tiling: every 1024-trial block's
    uniforms drawn in order from one generator, and the rows kept
    transformed as one rows x m array (M samples, or the chisq model's
    2u dimensions), their signal drawn after all of the block's noise.
    One generator, so no counter offset is assumed.

    Rows are drawn at unit noise, summed, divided by M (sample model)
    and then scaled by the noise variance. An H0 row of whole pairs
    (m even) sums the pairs' squared norms r² = -2·log1p(-u1). With
    radii=False every row squares its normals instead, as the fill did
    before it used r². The normals are r·(1 - t²) / (1 + t²) and
    r·2t / (1 + t²) with t = tan(π·u2); with tangent=False they are
    r·cos θ and r·sin θ with θ = 2π·u2, as the fill drew them before it
    took one tangent per pair. With full_scale=True a sample window
    is scaled first, noise and signal each by the square root of the
    noise variance, then squared and averaged, as the fill did before
    it drew at unit noise."""
    params = config.params
    chisq = config.model is GenerativeModel.CHISQ
    m = 2 * params.time_bandwidth if chisq else params.num_samples
    purpose = 0 if truth is Hypothesis.H0 else 1
    pairs = BLOCK_TRIALS * m // 2
    out = np.empty(count)
    for index in range(-(-count // BLOCK_TRIALS)):
        start = index * BLOCK_TRIALS
        rows = min(BLOCK_TRIALS, count - start)
        rng = block_generator(config.seed, (purpose << montecarlo._PURPOSE_SHIFT) | index)
        used = -(-rows * m // 2)  # the pairs the kept rows read
        u1 = rng.random(pairs)[:used]
        u2 = rng.random(pairs)[:used]
        if radii and truth is Hypothesis.H0 and m % 2 == 0:
            r2 = -2.0 * np.log1p(-u1)
            stats = np.sum(r2.reshape(rows, m // 2), axis=1)
            if not chisq:
                stats = stats / m
            out[start : start + rows] = stats * params.noise_variance
            continue
        radius = np.sqrt(-2.0 * np.log1p(-u1))
        z = np.empty(2 * used)
        if tangent:
            t = np.tan(np.pi * u2)
            w = radius / (1.0 + t * t)
            z[0::2] = w * (1.0 - t * t)
            z[1::2] = 2.0 * w * t
        else:
            angle = (2.0 * np.pi) * u2
            z[0::2] = radius * np.cos(angle)
            z[1::2] = radius * np.sin(angle)
        z = z[: rows * m].reshape(rows, m)
        if chisq:
            if truth is Hypothesis.H1:
                z[:, 0] += math.sqrt(2.0 * params.snr_linear)
            out[start : start + rows] = params.noise_variance * np.sum(np.square(z), axis=1)
            continue
        signal = bpsk_matrix(params, rng, config.mode, rows) if truth is Hypothesis.H1 else 0.0
        if full_scale:
            scale = math.sqrt(params.noise_variance)
            out[start : start + rows] = np.mean(np.square(scale * z + scale * signal), axis=1)
        else:
            out[start : start + rows] = np.sum(np.square(z + signal), axis=1) / m * params.noise_variance
    return out


class TestTiledSampleFill:
    """The block fill transforms each block in tiles of rows, for both
    models; tiles, like chunks, must only choose how the uniform stream
    is transformed.

    A second chunk only changes the run when there is a second block,
    so single-block counts run with one chunk. H0 windows hold no
    signal, so the signal mode and SNR cannot reach them, and the
    chisq model draws no signal mode at all.
    """

    COUNTS = (1, 63, 1024, 1025, 2500)

    def check(self, m, variance, snr_db, mode, truth, counts, model=GenerativeModel.SAMPLE):
        # m is num_samples for the sample model and time_bandwidth for the chisq one
        field = "time_bandwidth" if model is GenerativeModel.CHISQ else "num_samples"
        params = SensingParams(**{field: m}, snr_db=snr_db, noise_variance=variance)
        config = TrialConfig(num_trials=max(counts), seed=1000 + m, params=params, mode=mode, model=model)
        want = whole_block_statistics(config, truth, max(counts))
        for count in counts:
            for chunks in (1, 2) if count > BLOCK_TRIALS else (1,):
                montecarlo._block.cache_clear()
                got = _statistics(replace(config, parallel_chunks=chunks), truth, count)
                assert got.tobytes() == want[:count].tobytes(), (model, m, variance, snr_db, mode, truth, count, chunks)

    @pytest.mark.parametrize("m", [1, 2, 7, 63, 64, 65])
    def test_short_windows_keep_their_bits(self, m):
        for variance, snr_db, mode, truth in itertools.product((1.0, 2.5), (-14.0, 3.0), SignalMode, Hypothesis):
            self.check(m, variance, snr_db, mode, truth, self.COUNTS)

    @pytest.mark.parametrize("m", [999, 1000])
    def test_long_windows_keep_their_bits(self, m):
        # 64-row tiles; 63 rows end on a short odd tile, 1025 on a
        # one-row block, 2500 on a 452-row one
        counts = (63, 1025, 2500)
        self.check(m, 2.5, 3.0, SignalMode.BASEBAND_BPSK, Hypothesis.H0, counts)
        self.check(m, 1.0, -14.0, SignalMode.BASEBAND_BPSK, Hypothesis.H1, counts)
        self.check(m, 2.5, 3.0, SignalMode.CARRIER_BPSK, Hypothesis.H1, counts)

    def test_largest_window_keeps_its_bits(self):
        # one block at the block bound, 8 rows a tile
        self.check(8192, 2.5, 3.0, SignalMode.BASEBAND_BPSK, Hypothesis.H0, (BLOCK_TRIALS,))
        for mode in SignalMode:
            self.check(8192, 2.5, 3.0, mode, Hypothesis.H1, (BLOCK_TRIALS,))

    @pytest.mark.parametrize("u", [1, 5, 32, 33, 500])
    def test_chisq_rows_keep_their_bits(self, u):
        # 2u-wide rows: one tile a block up to u = 32, two from u = 33,
        # and sixteen 64-row tiles at u = 500
        cases = ((2.5, 3.0, Hypothesis.H0), (1.0, -14.0, Hypothesis.H1), (2.5, 3.0, Hypothesis.H1))
        for variance, snr_db, truth in cases:
            self.check(u, variance, snr_db, SignalMode.BASEBAND_BPSK, truth, self.COUNTS, GenerativeModel.CHISQ)

    @pytest.mark.parametrize(
        "model, field, widths",
        [(GenerativeModel.SAMPLE, "num_samples", (2, 64, 1000, 8192)), (GenerativeModel.CHISQ, "time_bandwidth", (1, 5, 500))],
    )
    def test_idle_rows_stay_within_8_ulps_of_squared_normals(self, model, field, widths):
        # r² and the squares of r·cos θ and r·sin θ differ by rounding alone
        for width, variance in itertools.product(widths, (1.0, 2.5)):
            params = SensingParams(**{field: width}, noise_variance=variance)
            config = TrialConfig(num_trials=BLOCK_TRIALS, seed=1000 + width, params=params, model=model)
            got = _statistics(config, Hypothesis.H0)
            squares = whole_block_statistics(config, Hypothesis.H0, BLOCK_TRIALS, radii=False, tangent=False)
            ulps = np.abs(got - squares) / np.spacing(squares)
            assert ulps.max() <= 8.0, (model, width, variance, ulps.max())

    @pytest.mark.parametrize(
        "model, field, width",
        [(GenerativeModel.SAMPLE, "num_samples", m) for m in (1, 2, 7, 64, 999, 1000, 8192)]
        + [(GenerativeModel.CHISQ, "time_bandwidth", u) for u in (1, 5, 500)],
    )
    def test_tangent_rows_stay_near_the_cos_sin_rows(self, model, field, width):
        # the tangent's normals differ from r·cos θ and r·sin θ by
        # rounding alone, so every row stays within 1e-14 of its mean:
        # nv·(1 + snr) for a sample window, nv·(2u + 2·snr) for a chisq row
        chisq = model is GenerativeModel.CHISQ
        for variance, snr_db, mode, truth in itertools.product((1.0, 2.5), (-14.0, 3.0, 20.0), SignalMode, Hypothesis):
            if truth is Hypothesis.H0 and (snr_db, mode) != (-14.0, SignalMode.BASEBAND_BPSK):
                continue  # an H0 row holds no signal
            if chisq and mode is not SignalMode.BASEBAND_BPSK:
                continue  # the chisq model draws no signal mode
            params = SensingParams(**{field: width}, snr_db=snr_db, noise_variance=variance)
            rows = min(BLOCK_TRIALS, 2**20 // width)  # at most a block, or 2^20 samples
            config = TrialConfig(num_trials=rows, seed=1000 + width, params=params, mode=mode, model=model)
            got = _statistics(config, truth)
            want = whole_block_statistics(config, truth, rows, tangent=False)
            mean = 2.0 * (width + params.snr_linear) if chisq else 1.0 + params.snr_linear
            drift = np.abs(got - want).max() / (variance * mean)
            assert drift <= 1e-14, (model, width, variance, snr_db, mode, truth, drift)

    @pytest.mark.parametrize("m", [1, 2, 7, 63, 64, 65, 999, 1000, 8192])
    def test_unit_noise_rows_stay_near_the_full_scale_order(self, m):
        # drawn at unit noise and scaled last, a sample statistic differs
        # from the full-scale window's by rounding alone
        for variance, snr_db, mode, truth in itertools.product((0.3, 2.5), (-14.0, 3.0), SignalMode, Hypothesis):
            if truth is Hypothesis.H0 and (snr_db, mode) != (-14.0, SignalMode.BASEBAND_BPSK):
                continue  # an H0 window holds no signal
            params = SensingParams(num_samples=m, snr_db=snr_db, noise_variance=variance)
            rows = min(BLOCK_TRIALS, 2**20 // m)  # at most a block, or 2^20 samples
            config = TrialConfig(num_trials=rows, seed=1000 + m, params=params, mode=mode)
            got = _statistics(config, truth)
            want = whole_block_statistics(config, truth, rows, full_scale=True)
            drift = np.abs(got - want).max() / (variance * (1.0 + params.snr_linear))
            assert drift <= 1e-14, (m, variance, snr_db, mode, truth, drift)

    @pytest.mark.parametrize(
        "model, field, width, truth, offsets",
        [
            (GenerativeModel.SAMPLE, "num_samples", 64, Hypothesis.H0, []),
            (GenerativeModel.CHISQ, "time_bandwidth", 5, Hypothesis.H0, []),
            (GenerativeModel.SAMPLE, "num_samples", 63, Hypothesis.H0, [512 * 63]),
            (GenerativeModel.SAMPLE, "num_samples", 64, Hypothesis.H1, [512 * 64, 1024 * 64]),
            (GenerativeModel.CHISQ, "time_bandwidth", 5, Hypothesis.H1, [1024 * 5]),
        ],
    )
    def test_cursor_budget(self, monkeypatch, model, field, width, truth, offsets):
        # the cursors a block opens past draw 0: an idle row of whole
        # pairs reads only its pairs' first uniforms
        opened = []
        original = montecarlo._generator_at

        def recording(seed, stream, draw):
            opened.append(draw)
            return original(seed, stream, draw)

        monkeypatch.setattr(montecarlo, "_generator_at", recording)
        params = SensingParams(**{field: width})
        montecarlo._block.__wrapped__(5, params, model, SignalMode.BASEBAND_BPSK, truth, 0, BLOCK_TRIALS)
        assert opened == offsets

    @pytest.mark.parametrize("truth", list(Hypothesis))
    @pytest.mark.parametrize("m", [999, 1000])
    def test_window_sum_past_the_largest_double(self, truth, m):
        # at noise variance 1e306 a window's sum of squares passes the
        # largest double though its mean does not, and at 1e307 a single
        # squared sample can; the statistic still scales with the variance
        config = TrialConfig(num_trials=BLOCK_TRIALS, seed=77, params=SensingParams(num_samples=m))
        for variance in (1e306, 1e307):
            huge = replace(config, params=replace(config.params, noise_variance=variance))
            got = _statistics(huge, truth)
            assert np.isfinite(got).all(), variance
            np.testing.assert_allclose(got / variance, _statistics(config, truth), rtol=1e-14)

    @pytest.mark.parametrize("mode", list(SignalMode))
    def test_signal_sum_past_the_largest_double(self, mode):
        # at 3060 dB a 1000-sample window's unit-noise sum passes the
        # largest double though its mean, about snr, does not; at 3070 dB
        # a tiny noise variance brings the statistic back to about 1e7
        for snr_db, variance in ((3060.0, 1.0), (3070.0, 1e-300)):
            params = SensingParams(num_samples=1000, snr_db=snr_db, noise_variance=variance)
            got = _statistics(TrialConfig(num_trials=64, seed=3, params=params, mode=mode), Hypothesis.H1)
            np.testing.assert_allclose(got, params.snr_linear * variance, rtol=1e-12)

    @staticmethod
    def block_peak(params, mode=SignalMode.BASEBAND_BPSK, model=GenerativeModel.SAMPLE, truth=Hypothesis.H1):
        """tracemalloc peak of filling one 1024-trial block, H1 unless told otherwise."""
        tracemalloc.start()
        try:
            montecarlo._block.__wrapped__(5, params, model, mode, truth, 0, BLOCK_TRIALS)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("mode", list(SignalMode))
    def test_block_working_set(self, mode):
        # the block's uniforms alone take 7.8 MiB; read tile by tile,
        # it peaks at about 2.3 MiB
        assert self.block_peak(SensingParams(num_samples=1000), mode) < 4 * 2**20

    @pytest.mark.parametrize("mode", list(SignalMode))
    def test_largest_block_working_set(self, mode):
        # 64 MiB of uniforms at the block bound, and still one tile's worth
        assert self.block_peak(SensingParams(num_samples=8192), mode) < 4 * 2**20

    @pytest.mark.parametrize("u", [500, 4096])
    def test_chisq_block_working_set(self, u):
        # a whole-block read peaked at 27 MiB at u = 500 and 224 MiB at
        # the block bound, u = 4096
        params = SensingParams(time_bandwidth=u)
        assert self.block_peak(params, model=GenerativeModel.CHISQ) < 4 * 2**20

    @pytest.mark.parametrize(
        "model, params",
        [(GenerativeModel.SAMPLE, SensingParams(num_samples=8192)), (GenerativeModel.CHISQ, SensingParams(time_bandwidth=4096))],
    )
    def test_idle_block_working_set(self, model, params):
        # an idle block reads one tile of radii at a time
        assert self.block_peak(params, model=model, truth=Hypothesis.H0) < 4 * 2**20


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
        # any truth but H0 drew H1's stream without its signal
        for truth in ("h1", None):
            with pytest.raises(ValueError, match=f"unknown hypothesis: {truth!r}"):
                estimate_single(14.0, config, truth)

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


def resolved_verdicts(energies, pair, config):
    """count_band's final Occupied verdict on each energy, counted alone."""
    return np.array([count_band(np.array([energy]), pair, config).resolved_occupied == 1 for energy in energies])


class TestResolvedVerdicts:
    def test_matches_scalar_loop(self):
        pair = ThresholdPair(12.0, 18.0)
        rng = np.random.default_rng(17)
        energies = np.concatenate([[12.0, 18.0, 15.0, 13.5, 16.5], rng.uniform(12.0, 18.0, size=400)])
        for max_iter in (4, 7, 10, 3, 30):
            config = BisectionConfig(max_iter=max_iter)
            verdicts = resolved_verdicts(energies, pair, config)
            for energy, got in zip(energies, verdicts):
                want = order_rule_threshold(12.0, 18.0, float(energy), max_iter)
                assert got == (energy > want), (max_iter, energy)
                assert bisection_optimum_threshold(pair, float(energy), config).lambda_opt == want

    def test_band_edges(self):
        # both edges resolve to 17.625; only the upper one lies above it
        pair = ThresholdPair(12.0, 18.0)
        verdicts = resolved_verdicts(np.array([12.0, 18.0]), pair, BisectionConfig())
        assert verdicts.tolist() == [False, True]
        assert order_rule_threshold(12.0, 18.0, 12.0, 4) == order_rule_threshold(12.0, 18.0, 18.0, 4) == 17.625

    def test_huge_band_midpoints_stay_in_band(self):
        # 1e308 + 1.5e308 overflows; the midpoints were all inf, so every
        # energy resolved Idle
        pair = ThresholdPair(1e308, 1.5e308)
        energies = np.array([1e308, 1.2e308, 1.25e308, 1.3e308, 1.49e308, 1.5e308])
        counts = count_band(energies, pair, BisectionConfig())
        final = [verdict_oracle(float(e), 1e308, 1.5e308, 4) for e in energies]
        assert counts.resolved_occupied == final.count("occupied") == 3
        for depth in (1, 4, 11):
            config = BisectionConfig(max_iter=depth)
            verdicts = resolved_verdicts(energies, pair, config)
            for energy, got in zip(energies, verdicts):
                assert got == (energy > order_rule_threshold(1e308, 1.5e308, float(energy), depth)), (depth, energy)

    def test_verdicts_scale_exactly_by_a_power_of_two(self):
        # as the scalar trace does; at depth 4 the product's sign test
        # resolved 6.2% of (0, 1e-300) Occupied, against half of (0, 1)
        rng = np.random.default_rng(19)
        energies = np.concatenate([[0.0, 1.0, 0.5, 0.25, 0.75], rng.uniform(0.0, 1.0, 995)])
        unit, tiny = ThresholdPair(0.0, 1.0), ThresholdPair(0.0, 2.0**-990)
        for depth in range(1, 13):
            config = BisectionConfig(max_iter=depth)
            want = resolved_verdicts(energies, unit, config)
            got = resolved_verdicts(np.ldexp(energies, -990), tiny, config)
            assert np.array_equal(got, want), depth
            assert count_band(np.ldexp(energies, -990), tiny, config) == count_band(energies, unit, config)


class TestCountBands:
    """count_bands against verdict_oracle, trial by trial, on energies
    planted on every kind of tie the sorted walk has to get right."""

    BANDS = [
        (12.0, 18.0),
        # cell edges that are not lambda_low + k * step
        (0.7, 3.1),
        # midpoints whose low + high overflows
        (1e308, 1.5e308),
        # one ulp wide: the top midpoint rounds onto lambda_high
        (1.0 + 2.0**-52, 1.0 + 2.0**-51),
        (5.0, 5.0),
    ]

    @staticmethod
    def planted(low, high, rng):
        """Families of energies for one band: on lambda_low and on
        lambda_high, on the order rule's midpoints of several depths, one
        ulp to either side of each of those, and a uniform fill."""
        fill = rng.uniform(low, high, 64)
        mids = sorted({order_rule_threshold(low, high, float(e), depth) for e in fill[:16] for depth in (1, 2, 3, 5, 8, 13)})
        edges = [low, low, high, high] + mids
        return {
            "edges": np.array(edges),
            "beside": np.concatenate([np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)]),
            "fill": fill,
        }

    @staticmethod
    def tally(energies, low, high, depths):
        """(first-pass Counter, {depth: resolved Occupied count}) by verdict_oracle.

        One order-rule walk per energy gives its verdicts at every depth:
        verdict_oracle at depth d compares with that walk's d-th midpoint.
        """
        first = Counter(verdict_oracle(float(e), low, high) for e in energies)
        final = dict.fromkeys(depths, first["occupied"])
        for energy in map(float, energies):
            if verdict_oracle(energy, low, high) == "fuzzy":
                trace = order_rule_trace(low, high, energy, max(depths))
                for depth in depths:
                    final[depth] += energy > trace[depth - 1]
        return first, final

    def test_counts_equal_the_oracle_at_depths_1_to_60(self):
        rng = np.random.default_rng(31)
        depths = range(1, 61)
        pairs = [ThresholdPair(low, high) for low, high in self.BANDS]
        families = {band: self.planted(*band, rng) for band in self.BANDS}
        # the oracle's walk at a few depths, checked against verdict_oracle itself
        for (low, high), family in families.items():
            for energy in family["edges"].tolist() + family["fill"][:8].tolist():
                if low <= energy <= high:
                    trace = order_rule_trace(low, high, energy, 60)
                    for depth in (1, 4, 11, 60):
                        want = verdict_oracle(energy, low, high, depth)
                        assert want == ("occupied" if energy > trace[depth - 1] else "idle")
        # every band's families one at a time, then all of them in one
        # shuffled array against every pair in one call
        arrays = [family[name] for family in families.values() for name in family]
        arrays.append(rng.permutation(np.concatenate(arrays)))
        for stats in arrays:
            before = stats.copy()
            tallies = [self.tally(stats, low, high, depths) for low, high in self.BANDS]
            for depth in depths:
                counts = count_bands(stats, pairs, BisectionConfig(max_iter=depth))
                for got, pair, (first, final) in zip(counts, pairs, tallies):
                    want = (first["occupied"], first["idle"], first["fuzzy"], final[depth])
                    assert (got.above, got.below, got.inside, got.resolved_occupied) == want, (pair, depth)
            assert np.array_equal(stats, before)
        # past depth 12 the fuzzy energies walk from their cells 2^12 at a
        # time: more than 2^12 + 1 of them, on and one ulp above every
        # depth-12 cell edge, shuffled, then one energy above the band
        for (low, high), pair in zip(self.BANDS[:3], pairs):
            edges = _cell_edges(low, high, 12)
            inside = [rng.uniform(low, high, 64), edges, np.nextafter(edges[:-1], np.inf), [low, high] * 4]
            family = np.append(rng.permutation(np.concatenate(inside)), np.nextafter(high, np.inf))
            first = [verdict_oracle(energy, low, high) for energy in family.tolist()]
            # each energy's resolved Occupied verdict at depths 1 to 60, from one walk
            final = np.array([
                np.array(order_rule_trace(low, high, energy, 60)) < energy
                if verdict == "fuzzy" else [verdict == "occupied"] * 60
                for energy, verdict in zip(family.tolist(), first)
            ])
            for size in (2**12, 2**12 + 1, family.size):
                counts = Counter(first[:size])
                for depth in depths:
                    got = count_band(family[:size], pair, BisectionConfig(max_iter=depth))
                    want = (counts["occupied"], counts["idle"], counts["fuzzy"], np.count_nonzero(final[:size, depth - 1]))
                    assert (got.above, got.below, got.inside, got.resolved_occupied) == want, (pair, size, depth)

    def test_counts_equal_the_oracle_at_the_deepest_depth(self):
        rng = np.random.default_rng(37)
        bands = [*self.BANDS, (0.0, sys.float_info.max)]
        stats = np.array([5e-324, 0.0, 1e-300, 1.0, 1.0 + 2.0**-52, 1.0 + 2.0**-51, 0.7, 2.5, 3.1, 5.0, 12.0, 13.6875,
                          18.0, 1e308, 1.25e308, 1.5e308, sys.float_info.max])
        stats = np.concatenate([stats, rng.uniform(0.7, 3.1, 8), rng.uniform(12.0, 18.0, 8)])
        before = stats.copy()
        counts = count_bands(stats, [ThresholdPair(*band) for band in bands], BisectionConfig(max_iter=2099))
        for got, (low, high) in zip(counts, bands):
            first, final = self.tally(stats, low, high, [2099])
            assert (got.above, got.below, got.inside) == (first["occupied"], first["idle"], first["fuzzy"])
            assert got.resolved_occupied == final[2099], (low, high)
        assert np.array_equal(stats, before)

    def test_one_ulp_band_leaves_its_top_idle(self):
        low, high = 1.0 + 2.0**-52, 1.0 + 2.0**-51
        assert (low + high) / 2.0 == high
        for depth in (1, 2, 5, 60):
            counts = count_band(np.array([low, high]), ThresholdPair(low, high), BisectionConfig(max_iter=depth))
            assert (counts.inside, counts.resolved_occupied) == (2, 0)
            assert verdict_oracle(high, low, high, depth) == "idle"

    def test_nan_is_fuzzy_then_idle(self):
        # as the comparisons read it: neither below nor above, never Occupied
        stats = np.array([np.nan, 11.0, 15.0, 19.0, np.nan])
        counts = count_bands(stats, [ThresholdPair(12.0, 18.0), ThresholdPair(15.0, 15.0)], BisectionConfig())
        assert counts[0] == BandCounts(above=1, below=1, inside=3, resolved_occupied=1)
        assert counts[1] == BandCounts(above=1, below=1, inside=3, resolved_occupied=1)

    def test_no_pairs_and_no_stats(self):
        assert count_bands(np.array([1.0, 2.0]), []) == []
        assert count_band(np.array([]), ThresholdPair(1.0, 2.0), BisectionConfig()) == BandCounts(0, 0, 0, 0)


class TestOneSortPerHypothesis:
    """Every counter of the library orders each hypothesis's draw once:
    one count per hypothesis, with all its pairs, of the draw's sorted
    statistics in the pairs' span, from the lowest lambda_low to the
    highest lambda_high."""

    CONFIG = TrialConfig(num_trials=2001, seed=43, model=GenerativeModel.CHISQ)
    PAIRS = [ThresholdPair(12.0, 18.0), ThresholdPair(8.0, 20.0), ThresholdPair(9.0, 9.0)]
    # name: (call, trials per hypothesis, pairs per count, span)
    CALLS = {
        "roc_table": (
            lambda c: roc_table(TestOneSortPerHypothesis.PAIRS, c, BisectionConfig()), (2001, 2001), 6, (8.0, 20.0),
        ),
        "collision_sweep": (
            lambda c: collision_sweep(TestOneSortPerHypothesis.PAIRS[:2], [14.5], c), (1000, 1001), 2, (8.0, 20.0),
        ),
        "estimate_double": (lambda c: estimate_double(ThresholdPair(12.0, 18.0), c), (1000, 1001), 1, (12.0, 18.0)),
        "estimate_double_resolved": (
            lambda c: estimate_double(ThresholdPair(12.0, 18.0), c, resolver="bisection-resolve"),
            (1000, 1001), 1, (12.0, 18.0),
        ),
        "roc_empirical": (lambda c: roc_empirical(np.linspace(2.0, 30.0, 15), c), (2001, 2001), 15, (2.0, 30.0)),
    }
    COUNTERS = {
        **{name: run for name, (run, _, _, _) in CALLS.items()},
        "estimate_single": lambda c: [estimate_single(9.0, c, truth) for truth in Hypothesis],
    }

    @pytest.mark.parametrize("name", CALLS)
    def test_one_count_bands_call_per_hypothesis(self, monkeypatch, name):
        run, sizes, num_pairs, (low, high) = self.CALLS[name]
        calls = []
        real = montecarlo._count_sorted

        def spy(ordered, pairs, bisection=None, under=0, over=0):
            calls.append((ordered.copy(), len(pairs)))
            return real(ordered, pairs, bisection, under, over)

        monkeypatch.setattr(montecarlo, "_count_sorted", spy)
        run(self.CONFIG)
        assert len(calls) == 2
        for (ordered, pairs), stats in zip(calls, draw_statistics(self.CONFIG, *sizes)):
            assert pairs == num_pairs
            span = stats[(stats >= low) & (stats <= high)]
            assert 0 < span.size < stats.size
            assert np.array_equal(ordered, np.sort(span))

    @pytest.mark.parametrize("name", COUNTERS)
    def test_draws_stay_in_trial_order(self, name):
        # a counter sorts its own copy of each draw, never a cached block
        # or an array another call is handed
        montecarlo._block.cache_clear()
        before = [stats.tobytes() for stats in draw_statistics(self.CONFIG)]
        self.COUNTERS[name](self.CONFIG)
        assert [stats.tobytes() for stats in draw_statistics(self.CONFIG)] == before


class TestSpanOrdering:
    """Sorting only the statistics in the pairs' span gives every count
    that sorting the whole draw gives, on planted draws."""

    CHUNK = montecarlo._SPAN_CHUNK
    LEVELS = (2.0, 8.0, 9.0, 12.0, 14.0, 18.0, 20.0, 30.0)
    PAIR_SETS = {
        "band": [ThresholdPair(12.0, 18.0)],
        "zero_width": [ThresholdPair(14.0, 14.0)],
        "mixed": [ThresholdPair(12.0, 18.0), ThresholdPair(8.0, 20.0), ThresholdPair(9.0, 9.0), ThresholdPair(18.0, 18.0)],
        "levels": [ThresholdPair(float(k), float(k)) for k in range(31)],
        "below_the_data": [ThresholdPair(0.0, 1.0), ThresholdPair(0.5, 0.5)],
        "above_the_data": [ThresholdPair(100.0, 200.0), ThresholdPair(300.0, 300.0)],
    }

    @classmethod
    def draws(cls) -> dict[str, np.ndarray]:
        """Planted draws: data in 1.5..60, ties on every level, NaNs, and runs
        of whole chunks in the span before and after chunks that are not."""
        rng = np.random.default_rng(53)
        data = rng.uniform(1.5, 60.0, 3 * cls.CHUNK + 5)
        data[rng.choice(data.size, 400, replace=False)] = rng.choice(cls.LEVELS, 400)
        data[rng.choice(data.size, 30, replace=False)] = np.nan
        inside = rng.uniform(8.0, 20.0, cls.CHUNK)
        inside[::97] = np.repeat(cls.LEVELS[1:-1], -(-inside[::97].size // 6))[: inside[::97].size]
        return {
            "ties_and_nans": data,
            "chunk_runs": np.concatenate([inside, data[: cls.CHUNK], inside[::-1], data[-7:], inside[:9]]),
            "all_nan": np.full(cls.CHUNK + 3, np.nan),
            "one": np.array([14.0]),
            "one_nan": np.array([np.nan]),
            "empty": np.array([]),
        }

    @staticmethod
    def full_sort(stats, pairs, bisection):
        return montecarlo._count_sorted(np.sort(stats), pairs, bisection)

    @pytest.mark.parametrize("pairs", PAIR_SETS)
    def test_count_bands_equals_a_full_sort(self, pairs):
        pairs = self.PAIR_SETS[pairs]
        for name, stats in self.draws().items():
            before = stats.copy()
            for bisection in (None, *map(BisectionConfig, range(1, 15))):
                want = self.full_sort(stats, pairs, bisection)
                assert count_bands(stats, pairs, bisection) == want, (name, bisection)
                assert montecarlo._count_span(stats.copy(), pairs, bisection) == want, (name, bisection)
            assert np.array_equal(stats, before, equal_nan=True)

    @pytest.mark.parametrize("name", ["ties_and_nans", "chunk_runs"])
    def test_every_counter_equals_a_full_sort(self, monkeypatch, name):
        # the counters read the planted draw in place of their own; each
        # count of it must be the full sort's
        stats = self.draws()[name]
        monkeypatch.setattr(montecarlo, "_statistics", lambda config, truth, count=None: stats.copy())
        n = stats.size
        config = TrialConfig(num_trials=n, seed=1, model=GenerativeModel.CHISQ)
        both = replace(config, num_trials=2 * n)
        pair = ThresholdPair(12.0, 18.0)
        pairs = self.PAIR_SETS["mixed"]
        for level in self.LEVELS:
            [want] = self.full_sort(stats, [ThresholdPair(level, level)], None)
            assert estimate_single(level, config, Hypothesis.H0).successes == want.above
        for resolver, bisection in (("report-fuzzy", None), ("bisection-resolve", BisectionConfig())):
            [want] = self.full_sort(stats, [pair], bisection)
            report = estimate_double(pair, both, resolver)
            assert (report.fuzzy_rate_h0.successes, report.fuzzy_rate_h1.successes) == (want.inside, want.inside)
            if bisection is None:
                assert (report.pf.successes, report.pc.successes) == (want.above, want.below)
            else:
                assert report.pf.successes == want.resolved_occupied
        for depth in (1, 8, 14):
            rows = collision_sweep(pairs[:2], [14.5], both, BisectionConfig(max_iter=depth))
            for row, want in zip(rows, self.full_sort(stats, pairs[:2], BisectionConfig(max_iter=depth)), strict=True):
                assert (row.pf.successes, row.pc_double.successes) == (want.above, want.below)
                assert row.pc_optimum.successes == n - want.resolved_occupied
        levels = self.PAIR_SETS["levels"]
        curve = roc_empirical([pair.lambda_low for pair in levels], config)
        want = self.full_sort(stats, levels[::-1], None)
        assert [point.pf for point in curve.points] == [counts.above / n for counts in want]
        table = roc_table(pairs, config, BisectionConfig(max_iter=14))
        bands = [ThresholdPair(p.lambda_low, p.lambda_low) for p in pairs]
        singles, doubles = self.full_sort(stats, bands, None), self.full_sort(stats, pairs, BisectionConfig(max_iter=14))
        for index in range(len(pairs)):
            assert table["single"][index][1].successes == singles[index].above
            assert table["double"][index][1].successes == doubles[index].above
            assert table["optimum"][index][2].successes == doubles[index].resolved_occupied


class TestCountersHoldOneDraw:
    """With the block cache warm, a library counter holds one
    hypothesis's statistics at a time: it sorts each fresh draw in place
    and counts it before drawing the other."""

    N = 2**17  # trials per hypothesis, 1 MiB of statistics
    CONFIG = TrialConfig(num_trials=N, seed=47, model=GenerativeModel.CHISQ)
    BOTH = replace(CONFIG, num_trials=2 * N)  # split evenly by the double counters
    PAIRS = [ThresholdPair(12.0, 18.0), ThresholdPair(8.0, 20.0)]
    CALLS = {
        "estimate_single": lambda: estimate_single(14.0, TestCountersHoldOneDraw.CONFIG, Hypothesis.H1),
        "estimate_double": lambda: estimate_double(ThresholdPair(12.0, 18.0), TestCountersHoldOneDraw.BOTH),
        "estimate_double_resolved": lambda: estimate_double(
            ThresholdPair(12.0, 18.0), TestCountersHoldOneDraw.BOTH, resolver="bisection-resolve"
        ),
        "collision_sweep": lambda: collision_sweep(TestCountersHoldOneDraw.PAIRS, [14.5], TestCountersHoldOneDraw.BOTH),
        # every trial fuzzy, bisected past depth 12
        "collision_sweep_depth_20": lambda: TestCountersHoldOneDraw.all_fuzzy(20),
        "collision_sweep_depth_40": lambda: TestCountersHoldOneDraw.all_fuzzy(40),
        "roc_empirical": lambda: roc_empirical(np.linspace(0.0, 30.0, 31), TestCountersHoldOneDraw.CONFIG),
    }

    @staticmethod
    def all_fuzzy(depth):
        band = ThresholdPair(0.0, 60.0)
        return collision_sweep([band], [14.5], TestCountersHoldOneDraw.BOTH, BisectionConfig(max_iter=depth))

    @pytest.mark.parametrize("name", CALLS)
    def test_peak_is_one_draw(self, name):
        draw_statistics(self.CONFIG)  # every block the call reads is cached
        tracemalloc.start()
        try:
            self.CALLS[name]()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one draw is 8N bytes; a sorted copy beside it, or both
        # hypotheses' draws at once, would be 16N to 24N
        assert peak < 1.25 * 8 * self.N, peak / (8 * self.N)


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
            first = Counter(verdict_oracle(float(e), low, high) for e in stats)
            final = Counter(verdict_oracle(float(e), low, high, depth) for e in stats)
            assert counts.above == first["occupied"]
            assert counts.below == first["idle"]
            assert counts.inside == first["fuzzy"]
            assert counts.resolved_occupied == final["occupied"]


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
        first = roc_empirical(grid, self.CONFIG)
        montecarlo._block.cache_clear()
        assert roc_empirical(grid, self.CONFIG) == first

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


class TestRocTable:
    CHISQ = TrialConfig(num_trials=3000, seed=23, model=GenerativeModel.CHISQ)
    SAMPLE = TrialConfig(num_trials=2000, seed=23, params=SensingParams(num_samples=200), model=GenerativeModel.SAMPLE)
    # a wide and a narrow band with fuzzy trials, a degenerate (lam, lam)
    # pair and a band below every statistic, given unsorted
    CASES = {
        "chisq": (CHISQ, "gamma-marcum", [ThresholdPair(12.0, 18.0), ThresholdPair(20.0, 21.5),
                                          ThresholdPair(9.0, 9.0), ThresholdPair(0.0, 0.5)]),
        "sample": (SAMPLE, "gaussian", [ThresholdPair(0.95, 1.05), ThresholdPair(1.2, 1.25),
                                        ThresholdPair(1.0, 1.0), ThresholdPair(0.0, 0.1)]),
    }
    FEW = replace(CHISQ, num_trials=64)
    GRID = [ThresholdPair(lam, lam + 6.0) for lam in np.linspace(0.0, 30.0, 31).tolist()]  # roc's default bands
    BUDGET = 2**12 + 1  # levels per survival call

    @pytest.mark.parametrize("model", ["chisq", "sample"])
    def test_rows_equal_the_per_band_oracle(self, model):
        config, form, pairs = self.CASES[model]
        bisection = BisectionConfig(max_iter=5)
        table = roc_table(pairs, config, bisection)
        idle_tail, busy_tail = tails(config.params, form)
        stats = draw_statistics(config)
        trials = config.num_trials
        want = {"single": [], "double": [], "optimum": []}
        fuzzy = 0
        for pair in pairs:
            level = ThresholdPair(pair.lambda_low, pair.lambda_low)
            single = [count_band(s, level).above for s in stats]
            bands = [count_band(s, pair, bisection) for s in stats]
            fuzzy += sum(band.inside for band in bands)
            closed = {
                "single": (idle_tail(pair.lambda_low), busy_tail(pair.lambda_low)),
                "double": (idle_tail(pair.lambda_high), busy_tail(pair.lambda_high)),
                "optimum": tuple(resolved_occupied_probability(pair, bisection, t) for t in (idle_tail, busy_tail)),
            }
            counts = {
                "single": single,
                "double": [band.above for band in bands],
                "optimum": [band.resolved_occupied for band in bands],
            }
            for name, (pf, pd) in closed.items():
                h0, h1 = counts[name]
                point = RocPoint(pf=pf, pd=pd, threshold=pair.lambda_low)
                want[name].append((point, RateEstimate(h0, trials), RateEstimate(h1, trials)))
        assert fuzzy > 0
        assert table == want

    def test_single_column_matches_point_functions_gamma(self):
        params = self.CHISQ.params
        pairs = [ThresholdPair(lam, lam + 6.0) for lam in (6.0 + 0.5 * k for k in range(40))]
        rows = roc_table(pairs, self.CHISQ, BisectionConfig())["single"]
        assert len(rows) == 40
        for (point, _, _), pair in zip(rows, pairs):
            assert point.threshold == pair.lambda_low
            assert point.pf == pf_gamma(point.threshold, params.time_bandwidth)
            assert point.pd == pd_marcum(point.threshold, params.snr_linear, params.time_bandwidth)

    def test_single_column_matches_point_functions_gaussian(self):
        params = self.SAMPLE.params
        pairs = [ThresholdPair(lam, lam + 0.05) for lam in (0.8 + 0.01 * k for k in range(60))]
        for point, _, _ in roc_table(pairs, self.SAMPLE, BisectionConfig())["single"]:
            assert point.pf == pf_gaussian(point.threshold, params.noise_variance, 200)
            assert point.pd == pd_gaussian(point.threshold, params.noise_variance, params.snr_linear, 200)

    def test_single_rates_nondecreasing_down_the_grid(self):
        pairs = [ThresholdPair(lam, lam + 6.0) for lam in (21.75 - 0.25 * k for k in range(80))]
        points = [point for point, _, _ in roc_table(pairs, self.CHISQ, BisectionConfig())["single"]]
        pfs = [p.pf for p in points]
        pds = [p.pd for p in points]
        assert pfs == sorted(pfs)
        assert pds == sorted(pds)

    def test_closed_form_failures_cost_no_trials(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("trials drawn before the failure")

        monkeypatch.setattr(montecarlo, "draw_statistics", no_draw)
        loud = replace(self.CHISQ, params=SensingParams(snr_db=30.0))
        with pytest.raises(ArithmeticError, match="28.50 dB"):
            roc_table([ThresholdPair(12.0, 18.0)], loud, BisectionConfig())
        with pytest.raises(ValueError, match="max_iter=60 splits band 30.0..36.0"):
            roc_table([ThresholdPair(30.0, 36.0), ThresholdPair(12.0, 18.0)], self.CHISQ, BisectionConfig(max_iter=60))

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError, match="pairs must be non-empty"):
            roc_table([], self.CHISQ, BisectionConfig())

    def test_bands_share_survival_calls(self, spy_tails):
        # 31 lower and 31 upper levels, then 31 bands of 17 edges at
        # depth 4: one call per tail, where each band took one of its own
        calls = spy_tails(montecarlo)
        roc_table(self.GRID, self.FEW, BisectionConfig(max_iter=4))
        assert calls == ([62 + 31 * 17], [62 + 31 * 17])

    def test_deep_band_reads_whole_slices(self, spy_tails):
        # at depth 13 the band's two slices of 2^12 + 1 edges fill a call each
        calls = spy_tails(montecarlo)
        roc_table([ThresholdPair(12.0, 18.0)], self.FEW, BisectionConfig(max_iter=13))
        assert calls == ([2, self.BUDGET, self.BUDGET], [2, self.BUDGET, self.BUDGET])

    @pytest.mark.parametrize("depth", range(1, 15))
    def test_rates_equal_the_one_band_calls(self, spy_tails, depth):
        # packing levels and bands into shared calls moves no bit: every
        # rate equals the float call at its level or the band's own
        # resolved closed form, and no call passes the budget
        calls = spy_tails(montecarlo)
        bisection = BisectionConfig(max_iter=depth)
        pairs = [ThresholdPair(12.0, 18.0), ThresholdPair(0.7, 3.1), ThresholdPair(630.0, 660.0)]
        for snr_db in (-14.0, 25.0):
            config = replace(self.FEW, params=SensingParams(snr_db=snr_db))
            table = roc_table(pairs, config, bisection)
            survivals = tails(config.params, "gamma-marcum")
            for index, pair in enumerate(pairs):
                single, double, optimum = (table[name][index][0] for name in ("single", "double", "optimum"))
                assert (single.pf, single.pd) == tuple(tail(pair.lambda_low) for tail in survivals)
                assert (double.pf, double.pd) == tuple(tail(pair.lambda_high) for tail in survivals)
                want = tuple(resolved_occupied_probability(pair, bisection, tail) for tail in survivals)
                assert (optimum.pf, optimum.pd) == want, (snr_db, pair)
        assert max(calls[0] + calls[1]) <= self.BUDGET

    def test_closed_forms_peak_under_a_mebibyte(self, monkeypatch):
        # 31 bands at depth 11 reach each tail 2^12 + 1 levels at most a
        # call; all 63,581 levels in one call per tail peaked at 8.9 MiB
        class DrawReached(Exception):
            pass

        peaks = []

        def stop_at_the_draw(config):
            peaks.append(tracemalloc.get_traced_memory()[1])
            raise DrawReached

        monkeypatch.setattr(montecarlo, "draw_statistics", stop_at_the_draw)
        tracemalloc.start()
        try:
            with pytest.raises(DrawReached):
                roc_table(self.GRID, self.CHISQ, BisectionConfig(max_iter=11))
        finally:
            tracemalloc.stop()
        assert peaks[0] < 2**20, peaks[0] / 2**20


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

    def test_one_energy_per_pair(self):
        # each row's threshold comes from its own energy; the counts,
        # which the energies do not enter, equal those of one shared energy
        pairs = [ThresholdPair(12.0, 18.0), ThresholdPair(8.0, 20.0)]
        config = replace(self.CONFIG, num_trials=2000)
        rows = collision_sweep(pairs, [14.5, 17.0], config)
        shared = collision_sweep(pairs, [14.5], config)
        assert [row.lambda_opt for row in rows] == [14.625, 19.25]
        assert [(row.pc_double, row.pc_optimum, row.pf) for row in rows] == [
            (row.pc_double, row.pc_optimum, row.pf) for row in shared
        ]

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
