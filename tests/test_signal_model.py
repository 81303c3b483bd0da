"""Sample generation tests: determinism, calibration, distribution."""

from __future__ import annotations

import math

import numpy as np
import pytest

from crn_sense.signal_model import (
    CYCLES_PER_BIT,
    SAMPLES_PER_BIT,
    SAMPLES_PER_CYCLE,
    SensingParams,
    SignalMode,
    block_generator,
    bpsk_matrix,
    noise_matrix,
    snr_db_to_linear,
    standard_normal,
)


class TestSnrConversion:
    def test_trivial_points(self):
        assert snr_db_to_linear(0.0) == 1.0
        assert snr_db_to_linear(10.0) == 10.0
        assert snr_db_to_linear(-14.0) == pytest.approx(0.039810717055349725, rel=1e-15)

    def test_errors(self):
        with pytest.raises(ValueError):
            snr_db_to_linear(math.inf)


class TestSensingParams:
    def test_derived_quantities(self):
        p = SensingParams(num_samples=200, snr_db=-14.0, noise_variance=2.0, time_bandwidth=5)
        assert p.snr_linear == pytest.approx(0.039810717055349725, rel=1e-15)
        assert p.signal_variance == pytest.approx(2.0 * p.snr_linear, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            SensingParams(num_samples=0)
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


class TestGenerators:
    def test_gen_noise_deterministic(self):
        p = SensingParams(num_samples=4)
        a = noise_matrix(p, block_generator(seed=7), 1)
        b = noise_matrix(p, block_generator(seed=7), 1)
        assert np.array_equal(a, b)
        assert a.shape == (1, 4)

    def test_distinct_seeds_and_streams_differ(self):
        p = SensingParams(num_samples=16)
        base = noise_matrix(p, block_generator(seed=1), 1)
        assert not np.array_equal(base, noise_matrix(p, block_generator(seed=2), 1))
        assert not np.array_equal(base, noise_matrix(p, block_generator(seed=1, stream=1), 1))

    def test_noise_variance_calibration(self):
        p = SensingParams(num_samples=10**6)
        window = noise_matrix(p, block_generator(seed=3), 1)[0]
        assert 0.99 <= float(np.var(window)) <= 1.01
        p4 = SensingParams(num_samples=10**6, noise_variance=4.0)
        window4 = noise_matrix(p4, block_generator(seed=3), 1)[0]
        assert abs(float(np.var(window4)) - 4.0) <= 0.04

    def test_noise_lag1_autocorrelation_near_zero(self):
        p = SensingParams(num_samples=10**6)
        x = noise_matrix(p, block_generator(seed=5), 1)[0]
        x = x - x.mean()
        lag1 = float(np.dot(x[:-1], x[1:]) / np.dot(x, x))
        assert abs(lag1) < 0.005

    def test_signal_plus_noise_deterministic_h1(self):
        p = SensingParams(num_samples=64)

        # one rng, noise drawn first and then the symbol signs, as the
        # Monte Carlo engine draws an H1 window
        def h1_window(seed):
            rng = block_generator(seed)
            noise = noise_matrix(p, rng, 1)
            return noise + bpsk_matrix(p, rng, SignalMode.BASEBAND_BPSK, 1)

        a = h1_window(11)
        assert np.array_equal(a, h1_window(11))
        assert not np.array_equal(a, noise_matrix(p, block_generator(11), 1))

    def test_baseband_signal_is_constant_magnitude(self):
        p = SensingParams(num_samples=512, snr_db=-14.0)
        rng = block_generator(seed=9)
        signal = bpsk_matrix(p, rng, SignalMode.BASEBAND_BPSK, 1)[0]
        magnitude = math.sqrt(p.signal_variance)
        assert np.allclose(np.abs(signal), magnitude, rtol=0, atol=0)
        assert set(np.sign(signal)) == {-1.0, 1.0}

    def test_carrier_power_is_exact_over_whole_cycles(self):
        # cos^2 sums to exactly half the samples over each full cycle,
        # so a window of whole cycles carries signal power sigma_s^2
        p = SensingParams(num_samples=8 * 125, snr_db=-14.0)
        rng = block_generator(seed=13)
        signal = bpsk_matrix(p, rng, SignalMode.CARRIER_BPSK, 1)[0]
        power = float(np.mean(np.square(signal)))
        assert power == pytest.approx(p.signal_variance, rel=1e-12)

    def test_carrier_power_calibration_large_window(self):
        p = SensingParams(num_samples=10**6, snr_db=-14.0)
        rng = block_generator(seed=17)
        signal = bpsk_matrix(p, rng, SignalMode.CARRIER_BPSK, 1)[0]
        power = float(np.mean(np.square(signal)))
        assert abs(power - p.signal_variance) <= 0.02 * p.signal_variance

    def test_baseband_power_calibration_large_window(self):
        p = SensingParams(num_samples=10**6, snr_db=-14.0)
        rng = block_generator(seed=19)
        signal = bpsk_matrix(p, rng, SignalMode.BASEBAND_BPSK, 1)[0]
        power = float(np.mean(np.square(signal)))
        assert power == pytest.approx(p.signal_variance, rel=1e-12)

    def test_zero_snr_limit_gives_silent_signal(self):
        p = SensingParams(num_samples=256, snr_db=-1000.0)
        rng = block_generator(seed=23)
        signal = bpsk_matrix(p, rng, SignalMode.BASEBAND_BPSK, 1)[0]
        assert float(np.max(np.abs(signal))) == pytest.approx(math.sqrt(p.signal_variance))
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
        scale = math.sqrt(2.0 * p.signal_variance)
        for bit in range(3):
            chunk = signal[bit * SAMPLES_PER_BIT : (bit + 1) * SAMPLES_PER_BIT]
            ratio = chunk / (scale * carrier + 1e-300)
            # each bit spans SAMPLES_PER_BIT samples with one sign
            signs = np.sign(ratio[np.abs(carrier) > 0.5])
            assert len(set(signs)) == 1


class TestStandardNormal:
    def test_fixed_uniform_consumption(self):
        # odd and even requests with the same pair count share a prefix
        a = standard_normal(block_generator(31), 5)
        b = standard_normal(block_generator(31), 6)
        assert np.array_equal(a, b[:5])

    def test_moments(self):
        z = standard_normal(block_generator(37), 400000)
        assert abs(float(z.mean())) < 0.01
        assert abs(float(z.std()) - 1.0) < 0.01

    def test_count_validation(self):
        with pytest.raises(ValueError):
            standard_normal(block_generator(1), 0)


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


class TestSampleBlock:
    def test_length_matches_params(self):
        for m in (1, 5, 1000):
            p = SensingParams(num_samples=m)
            assert noise_matrix(p, block_generator(seed=1), 1).shape == (1, m)
            assert bpsk_matrix(p, block_generator(seed=1), SignalMode.BASEBAND_BPSK, 1).shape == (1, m)

    def test_constants(self):
        assert SAMPLES_PER_CYCLE == 8
        assert CYCLES_PER_BIT == 8
        assert SAMPLES_PER_BIT == 64
