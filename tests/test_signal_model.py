"""Sample generation tests: determinism, calibration, distribution."""

from __future__ import annotations

import math

import numpy as np
import pytest

from crn_sense import montecarlo
from crn_sense.montecarlo import TrialConfig, _statistics
from crn_sense.signal_model import (
    CYCLES_PER_BIT,
    SAMPLES_PER_BIT,
    SAMPLES_PER_CYCLE,
    Hypothesis,
    SensingParams,
    SignalMode,
    _box_muller,
    _generator_at,
    block_generator,
    bpsk_matrix,
    snr_db_to_linear,
)

from oracles import carrier_bpsk_oracle


def box_muller(seed: int, pairs: int, stream: int = 0) -> np.ndarray:
    """2·pairs normals of (seed, stream) in a block's draw order: every
    pair's first uniform, then every second one."""
    rng = block_generator(seed, stream)
    return _box_muller(rng.random(pairs), rng.random(pairs))


class TestSnrConversion:
    def test_trivial_points(self):
        assert snr_db_to_linear(0.0) == 1.0
        assert snr_db_to_linear(10.0) == 10.0
        assert snr_db_to_linear(-14.0) == pytest.approx(0.039810717055349725, rel=1e-15)

    def test_errors(self):
        with pytest.raises(ValueError):
            snr_db_to_linear(math.inf)

    def test_largest_finite_power_ratio(self):
        # 10^(dB / 10) overflows past it, which used to end in OverflowError
        largest = 3082.547155599167
        assert snr_db_to_linear(largest) == pytest.approx(1.7976931348620926e308, rel=1e-15)
        for snr_db in (math.nextafter(largest, math.inf), 3090.0, 1e308):
            with pytest.raises(ValueError, match="at most 3082.547155599167 dB"):
                snr_db_to_linear(snr_db)


class TestSensingParams:
    def test_derived_quantities(self):
        p = SensingParams(num_samples=200, snr_db=-14.0, noise_variance=2.0, time_bandwidth=5)
        assert p.snr_linear == pytest.approx(0.039810717055349725, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            SensingParams(num_samples=0)
        # 100.0 passed and then failed as a TypeError at the first draw
        for m in (100.0, 2.5):
            with pytest.raises(ValueError, match="num_samples must be an integer"):
                SensingParams(num_samples=m)
        with pytest.raises(ValueError):
            SensingParams(noise_variance=0.0)
        with pytest.raises(ValueError):
            SensingParams(noise_variance=-1.0)
        with pytest.raises(ValueError):
            SensingParams(time_bandwidth=0)
        # the chi-square draw needs 2u whole dimensions, so 5.0 is refused too
        for order in (2.5, 5.0):
            with pytest.raises(ValueError, match="time_bandwidth must be an integer"):
                SensingParams(time_bandwidth=order)
        with pytest.raises(ValueError):
            SensingParams(snr_db=math.nan)
        with pytest.raises(ValueError, match="at most 3082.547155599167 dB"):
            SensingParams(snr_db=3090.0)


class TestGenerators:
    def test_gen_noise_deterministic(self):
        a = box_muller(7, 2)
        assert np.array_equal(a, box_muller(7, 2))
        assert a.shape == (4,)
        config = TrialConfig(num_trials=3, seed=7, params=SensingParams(num_samples=4))
        first = _statistics(config, Hypothesis.H0)
        montecarlo._block.cache_clear()
        assert np.array_equal(first, _statistics(config, Hypothesis.H0))

    def test_distinct_seeds_and_streams_differ(self):
        base = box_muller(1, 8)
        assert not np.array_equal(base, box_muller(2, 8))
        assert not np.array_equal(base, box_muller(1, 8, stream=1))
        p = SensingParams(num_samples=16)
        stats = _statistics(TrialConfig(num_trials=4, seed=1, params=p), Hypothesis.H0)
        assert not np.array_equal(stats, _statistics(TrialConfig(num_trials=4, seed=2, params=p), Hypothesis.H0))

    def test_noise_variance_calibration(self):
        z = box_muller(3, 10**6 // 2)
        assert 0.99 <= float(np.var(z)) <= 1.01
        # 1000 idle windows of 1000 samples: the mean statistic is the
        # mean square of 10^6 noise samples, which is the noise variance
        for variance, tolerance in ((1.0, 0.01), (4.0, 0.04)):
            p = SensingParams(num_samples=1000, noise_variance=variance)
            stats = _statistics(TrialConfig(num_trials=1000, seed=3, params=p), Hypothesis.H0)
            assert abs(float(np.mean(stats)) - variance) <= tolerance

    def test_noise_lag1_autocorrelation_near_zero(self):
        x = box_muller(5, 10**6 // 2)
        x = x - x.mean()
        lag1 = float(np.dot(x[:-1], x[1:]) / np.dot(x, x))
        assert abs(lag1) < 0.005

    def test_signal_plus_noise_deterministic_h1(self):
        p = SensingParams(num_samples=64)

        # one rng, noise drawn first and then the symbol signs, as the
        # Monte Carlo engine draws an H1 window
        def h1_window(seed):
            rng = block_generator(seed)
            noise = _box_muller(rng.random(32), rng.random(32)).reshape(1, 64)
            return noise + bpsk_matrix(p, rng, SignalMode.BASEBAND_BPSK, 1)

        a = h1_window(11)
        assert np.array_equal(a, h1_window(11))
        assert not np.array_equal(a[0], box_muller(11, 32))

    def test_baseband_signal_is_constant_magnitude(self):
        # in units of the noise: the noise variance does not reach it
        p = SensingParams(num_samples=512, snr_db=-14.0, noise_variance=4.0)
        rng = block_generator(seed=9)
        signal = bpsk_matrix(p, rng, SignalMode.BASEBAND_BPSK, 1)[0]
        magnitude = math.sqrt(p.snr_linear)
        assert np.allclose(np.abs(signal), magnitude, rtol=0, atol=0)
        assert set(np.sign(signal)) == {-1.0, 1.0}

    def test_carrier_power_is_exact_over_whole_cycles(self):
        # cos^2 sums to exactly half the samples over each full cycle,
        # so a window of whole cycles carries signal power snr_linear
        p = SensingParams(num_samples=8 * 125, snr_db=-14.0)
        rng = block_generator(seed=13)
        signal = bpsk_matrix(p, rng, SignalMode.CARRIER_BPSK, 1)[0]
        power = float(np.mean(np.square(signal)))
        assert power == pytest.approx(p.snr_linear, rel=1e-12)

    def test_carrier_power_calibration_large_window(self):
        p = SensingParams(num_samples=10**6, snr_db=-14.0)
        rng = block_generator(seed=17)
        signal = bpsk_matrix(p, rng, SignalMode.CARRIER_BPSK, 1)[0]
        power = float(np.mean(np.square(signal)))
        assert abs(power - p.snr_linear) <= 0.02 * p.snr_linear

    def test_baseband_power_calibration_large_window(self):
        p = SensingParams(num_samples=10**6, snr_db=-14.0)
        rng = block_generator(seed=19)
        signal = bpsk_matrix(p, rng, SignalMode.BASEBAND_BPSK, 1)[0]
        power = float(np.mean(np.square(signal)))
        assert power == pytest.approx(p.snr_linear, rel=1e-12)

    def test_zero_snr_limit_gives_silent_signal(self):
        p = SensingParams(num_samples=256, snr_db=-1000.0)
        rng = block_generator(seed=23)
        signal = bpsk_matrix(p, rng, SignalMode.BASEBAND_BPSK, 1)[0]
        assert float(np.max(np.abs(signal))) == pytest.approx(math.sqrt(p.snr_linear))
        assert float(np.max(np.abs(signal))) < 1e-49

    def test_unknown_mode_rejected(self):
        p = SensingParams(num_samples=8)
        rng = block_generator(seed=1)
        with pytest.raises(ValueError):
            bpsk_matrix(p, rng, "qpsk", 1)

    def test_carrier_symbol_structure(self):
        p = SensingParams(num_samples=SAMPLES_PER_BIT * 3, snr_db=0.0)
        rng = block_generator(seed=29)
        signal = bpsk_matrix(p, rng, SignalMode.CARRIER_BPSK, 1)[0]
        carrier = np.cos(2.0 * np.pi * np.arange(SAMPLES_PER_BIT) / SAMPLES_PER_CYCLE)
        scale = math.sqrt(2.0 * p.snr_linear)
        for bit in range(3):
            chunk = signal[bit * SAMPLES_PER_BIT : (bit + 1) * SAMPLES_PER_BIT]
            ratio = chunk / (scale * carrier + 1e-300)
            # each bit spans SAMPLES_PER_BIT samples with one sign
            signs = np.sign(ratio[np.abs(carrier) > 0.5])
            assert len(set(signs)) == 1


class TestBpskSigns:
    UNIFORMS = [0.0, 0.49999999999999994, 0.5, 0.5000000000000001, 0.9999999999999999]

    class Stub:
        def __init__(self, values):
            self.values = values

        def random(self, count):
            assert count == len(self.values)
            return np.array(self.values)

    @pytest.mark.parametrize("snr_db", [-14.0, 3.0, -4000.0])
    def test_signs_match_a_threshold_at_one_half(self, snr_db):
        # the old form: a -1/+1 sign per uniform, then one multiply;
        # at -4000 dB the amplitude is 0.0 and the signs are -0.0 and +0.0
        p = SensingParams(num_samples=len(self.UNIFORMS), snr_db=snr_db)
        got = bpsk_matrix(p, self.Stub(self.UNIFORMS), SignalMode.BASEBAND_BPSK, 1)
        want = math.sqrt(p.snr_linear) * np.where(np.array([self.UNIFORMS]) < 0.5, -1.0, 1.0)
        assert got.tobytes() == want.tobytes()
        assert got.shape == (1, len(self.UNIFORMS))


class TestCarrierRows:
    @pytest.mark.parametrize("m", (1, 7, 63, 64, 65, 1000, 8192))
    def test_prescaled_carrier_keeps_the_bits(self, m):
        # ±(c·x) rounds as (±c)·x, so scaling the carrier row once gives
        # the bits of scaling the symbols first; from 3081 dB the
        # amplitude is inf and every sample ±inf, at -3300 dB it is 0
        rows, bits_per_row = 3, -(-m // SAMPLES_PER_BIT)
        uniforms = block_generator(31).random(rows * bits_per_row).reshape(rows, bits_per_row)
        for snr_db in (-3300.0, -14.0, -3.0, 0.0, 3.0, 20.0, 3079.0, 3081.0, 3082.5):
            p = SensingParams(num_samples=m, snr_db=snr_db)
            got = bpsk_matrix(p, block_generator(31), SignalMode.CARRIER_BPSK, rows)
            want = carrier_bpsk_oracle(p.snr_linear, uniforms, m)
            assert got.shape == (rows, m)
            assert got.tobytes() == want.tobytes(), snr_db
            if snr_db == -3300.0:
                assert not got.any()
            if snr_db >= 3081.0:
                assert np.isinf(got).all()


class TestStandardNormal:
    def test_moments(self):
        z = box_muller(37, 200000)
        assert abs(float(z.mean())) < 0.01
        assert abs(float(z.std()) - 1.0) < 0.01

    def test_tangent_normals_match_cos_and_sin(self):
        # random pairs, and every pairing of the edge uniforms: t = tan(π·u2)
        # is 0 at u2 = 0, 1.6e16 at u2 = 0.5, by its pole, and 3.5e15 and
        # -2.6e15 at the doubles either side; u1 = 0 gives r = 0, and
        # 1 - 2^-53 the largest r
        below_one = 1.0 - 2.0**-53
        edge_u2 = [0.0, 0.25, math.nextafter(0.5, 0.0), 0.5, math.nextafter(0.5, 1.0), 0.75, below_one]
        edges = np.array([(u1, u2) for u1 in (0.0, below_one) for u2 in edge_u2])
        rng = block_generator(41)
        u1 = np.concatenate([edges[:, 0], rng.random(2**18)])
        u2 = np.concatenate([edges[:, 1], rng.random(2**18)])
        z = _box_muller(u1, u2)
        assert np.isfinite(z).all()
        r2 = -2.0 * np.log1p(-u1)
        r = np.sqrt(r2)
        angle = (2.0 * np.pi) * u2
        assert np.all(np.abs(z[0::2] - r * np.cos(angle)) <= 8.0 * 2.0**-53 * r)
        assert np.all(np.abs(z[1::2] - r * np.sin(angle)) <= 8.0 * 2.0**-53 * r)
        assert np.all(np.abs(z[0::2] ** 2 + z[1::2] ** 2 - r2) <= 12.0 * np.spacing(r2))


class TestBlockGenerator:
    def test_seed_range_validation(self):
        with pytest.raises(ValueError):
            block_generator(-1)
        with pytest.raises(ValueError):
            block_generator(2**64)
        with pytest.raises(ValueError):
            block_generator(0, stream=2**64)

    def test_full_64_bit_seed_accepted(self):
        block_generator(2**64 - 1, stream=2**64 - 1)

    @pytest.mark.parametrize("seed, stream", [(5, 0), (2**64 - 1, (1 << 48) | 3)])
    def test_generator_at_starts_at_its_draw(self, seed, stream):
        # the sample fill's cursors: a whole block at M = 7 holds
        # pairs = 512 x 7 uniform pairs, then its signal uniforms
        pairs = 512 * 7
        whole = block_generator(seed, stream).random(2 * pairs + 64)
        for draw in (0, 4, pairs, 2 * pairs):
            got = _generator_at(seed, stream, draw).random(len(whole) - draw)
            assert got.tobytes() == whole[draw:].tobytes(), draw

    @pytest.mark.parametrize("seed", [0, 1, (1 << 48) | 7, 2**64 - 1])
    @pytest.mark.parametrize("stream", [0, 1, (1 << 48) | 7, 2**64 - 1])
    def test_keyed_streams_draw_as_a_philox_keyed_by_seed_and_stream(self, seed, stream):
        key = np.array([seed, stream], dtype=np.uint64)
        for draw in (0, 4, 2**40):
            want = np.random.Generator(np.random.Philox(key=key, counter=draw // 4)).random(9)
            assert _generator_at(seed, stream, draw).random(9).tobytes() == want.tobytes(), draw
        want = np.random.Generator(np.random.Philox(key=key)).random(9)
        assert block_generator(seed, stream).random(9).tobytes() == want.tobytes()

    def test_keyed_stream_holds_its_key_not_a_seed_sequence(self):
        # no SeedSequence, so no OS entropy is drawn, and none to spawn from
        bit_generator = block_generator(5, 3).bit_generator
        assert not isinstance(bit_generator.seed_seq, np.random.SeedSequence)
        assert bit_generator.seed_seq.key == (5, 3)
        assert bit_generator.seed_seq.generate_state(2, np.uint64).tolist() == [5, 3]
        assert "keyed" in block_generator.__doc__ and "cannot `spawn`" in block_generator.__doc__
        with pytest.raises(TypeError, match="spawn"):
            block_generator(5, 3).spawn(1)

    def test_generator_at_refuses_a_partial_counter(self):
        with pytest.raises(ValueError, match="multiple of 4"):
            _generator_at(5, 0, 6)


class TestSampleBlock:
    def test_length_matches_params(self):
        for m in (1, 5, 1000):
            p = SensingParams(num_samples=m)
            assert box_muller(1, m).shape == (2 * m,)
            assert _statistics(TrialConfig(num_trials=3, seed=1, params=p), Hypothesis.H1).shape == (3,)
            assert bpsk_matrix(p, block_generator(seed=1), SignalMode.BASEBAND_BPSK, 1).shape == (1, m)

    def test_constants(self):
        assert SAMPLES_PER_CYCLE == 8
        assert CYCLES_PER_BIT == 8
        assert SAMPLES_PER_BIT == 64
