"""Received-sample generation under the idle and occupied hypotheses.

The random number generator is pinned: Philox (a named, counter-based,
64-bit algorithm) keyed directly by (seed, stream), with Gaussian
variates produced by the Box-Muller transform. Box-Muller consumes a
fixed number of uniforms per draw, so streams never drift between
platforms or between sequential and parallel execution orders.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SAMPLES_PER_CYCLE",
    "CYCLES_PER_BIT",
    "SAMPLES_PER_BIT",
    "Hypothesis",
    "SignalMode",
    "SensingParams",
    "snr_db_to_linear",
    "check_uint64",
    "block_generator",
    "standard_normal",
    "noise_matrix",
    "bpsk_matrix",
]

SAMPLES_PER_CYCLE = 8
CYCLES_PER_BIT = 8
SAMPLES_PER_BIT = SAMPLES_PER_CYCLE * CYCLES_PER_BIT

_MAX_UINT64 = 2**64


class Hypothesis(enum.Enum):
    """Ground truth of a sensing window."""

    H0 = "h0"  # band idle, noise only
    H1 = "h1"  # primary user transmitting


class SignalMode(enum.Enum):
    """Shape of the primary-user waveform under H1."""

    BASEBAND_BPSK = "baseband-bpsk"
    CARRIER_BPSK = "carrier-bpsk"


@dataclass(frozen=True)
class SensingParams:
    """Static parameters of a sensing configuration.

    num_samples is the window length M; snr_db the signal-to-noise
    ratio of the primary user at the detector; noise_variance the
    per-sample noise power; time_bandwidth the order u used by the
    gamma / Marcum probability family.
    """

    num_samples: int = 1000
    snr_db: float = -14.0
    noise_variance: float = 1.0
    time_bandwidth: int = 5

    def __post_init__(self) -> None:
        if self.num_samples < 1:
            raise ValueError(f"num_samples must be >= 1, got {self.num_samples!r}")
        if not math.isfinite(self.snr_db):
            raise ValueError(f"snr_db must be finite, got {self.snr_db!r}")
        if not (math.isfinite(self.noise_variance) and self.noise_variance > 0.0):
            raise ValueError(f"noise_variance must be positive, got {self.noise_variance!r}")
        if not (isinstance(self.time_bandwidth, numbers.Integral) and self.time_bandwidth >= 1):
            raise ValueError(f"time_bandwidth must be an integer >= 1, got {self.time_bandwidth!r}")

    @property
    def snr_linear(self) -> float:
        return snr_db_to_linear(self.snr_db)

    @property
    def signal_variance(self) -> float:
        return self.snr_linear * self.noise_variance


def snr_db_to_linear(snr_db: float) -> float:
    """Power ratio for a dB figure: 10^(snr_db / 10)."""
    if not math.isfinite(snr_db):
        raise ValueError(f"snr_db must be finite, got {snr_db!r}")
    return 10.0 ** (snr_db / 10.0)


def check_uint64(name: str, value: int) -> None:
    """Reject a seed or stream id that does not fit Philox's 64-bit key words."""
    if not 0 <= value < _MAX_UINT64:
        raise ValueError(f"{name} must be a 64-bit unsigned integer, got {value!r}")


def block_generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent generator for (seed, stream); same pair, same draws."""
    check_uint64("seed", seed)
    check_uint64("stream", stream)
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def standard_normal(rng: np.random.Generator, count: int) -> np.ndarray:
    """count standard normal draws via Box-Muller.

    Always consumes 2 * ceil(count / 2) uniforms, independent of the
    values drawn; that fixed budget is what makes block streams safe to
    generate in any order.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    pairs = (count + 1) // 2
    u1 = rng.random(pairs)
    u2 = rng.random(pairs)
    radius = np.sqrt(-2.0 * np.log1p(-u1))  # 1 - u1 in (0, 1], no log(0)
    angle = (2.0 * np.pi) * u2
    z = np.empty(2 * pairs)
    z[0::2] = radius * np.cos(angle)
    z[1::2] = radius * np.sin(angle)
    return z[:count]


def noise_matrix(params: SensingParams, rng: np.random.Generator, num_rows: int) -> np.ndarray:
    """num_rows independent noise windows, shape (num_rows, M)."""
    if num_rows < 1:
        raise ValueError(f"num_rows must be >= 1, got {num_rows!r}")
    m = params.num_samples
    scale = math.sqrt(params.noise_variance)
    return scale * standard_normal(rng, num_rows * m).reshape(num_rows, m)


def bpsk_matrix(
    params: SensingParams,
    rng: np.random.Generator,
    mode: SignalMode,
    num_rows: int,
) -> np.ndarray:
    """num_rows BPSK signal windows at power signal_variance, shape (num_rows, M)."""
    if not isinstance(mode, SignalMode):
        raise ValueError(f"unknown signal mode: {mode!r}")
    if num_rows < 1:
        raise ValueError(f"num_rows must be >= 1, got {num_rows!r}")
    m = params.num_samples
    if mode is SignalMode.BASEBAND_BPSK:
        signs = np.where(rng.random(num_rows * m) < 0.5, -1.0, 1.0).reshape(num_rows, m)
        return math.sqrt(params.signal_variance) * signs
    bits_per_row = -(-m // SAMPLES_PER_BIT)
    bits = np.where(rng.random(num_rows * bits_per_row) < 0.5, -1.0, 1.0)
    bits = bits.reshape(num_rows, bits_per_row)
    symbols = np.repeat(bits, SAMPLES_PER_BIT, axis=1)[:, :m]
    carrier = np.cos(2.0 * np.pi * np.arange(m) / SAMPLES_PER_CYCLE)
    # sqrt(2) amplitude compensates the 1/2 average power of cos^2.
    return math.sqrt(2.0 * params.signal_variance) * symbols * carrier

