"""Received-sample generation under the idle and occupied hypotheses.

The random number generator is pinned: Philox (a named, counter-based,
64-bit algorithm) keyed directly by (seed, stream), with Gaussian
variates produced by the Box-Muller transform, each pair's cosine and
sine taken from one tangent of the half angle. Box-Muller consumes a
fixed number of uniforms per draw, so the uniforms never drift between
platforms or execution orders; the normals' bits, from numpy's log1p
and tan, hold within one numpy SIMD dispatch level, and counts against
thresholds on every CPU unless a statistic sits within ulps of one.
Draw order fixes which uniform feeds which variate: every pair's first
uniform, then every second one, then an H1 window's BPSK uniforms,
row by row. A reader that needs only some of them, as an idle
window's squared norms need only the pairs' first uniforms, leaves
the others unread at their offsets. A stream's Philox is built from
its key and counter alone: its seed sequence hands Philox the key
(seed, stream) as is, so no OS entropy is drawn for a stream that
never uses any, and numpy.random itself is imported at the first draw,
not with the package.
"""

from __future__ import annotations

import enum
import functools
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
    "bpsk_matrix",
]

SAMPLES_PER_CYCLE = 8
CYCLES_PER_BIT = 8
SAMPLES_PER_BIT = SAMPLES_PER_CYCLE * CYCLES_PER_BIT

_MAX_UINT64 = 2**64
_MAX_SNR_DB = 3082.547155599167  # the largest dB whose 10^(dB / 10) is a finite double


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
        if not (isinstance(self.num_samples, numbers.Integral) and self.num_samples >= 1):
            raise ValueError(f"num_samples must be an integer >= 1, got {self.num_samples!r}")
        snr_db_to_linear(self.snr_db)  # rejects what has no finite power ratio
        if not (math.isfinite(self.noise_variance) and self.noise_variance > 0.0):
            raise ValueError(f"noise_variance must be positive, got {self.noise_variance!r}")
        if not (isinstance(self.time_bandwidth, numbers.Integral) and self.time_bandwidth >= 1):
            raise ValueError(f"time_bandwidth must be an integer >= 1, got {self.time_bandwidth!r}")

    @property
    def snr_linear(self) -> float:
        return snr_db_to_linear(self.snr_db)


def snr_db_to_linear(snr_db: float) -> float:
    """Power ratio for a dB figure: 10^(snr_db / 10), finite up to _MAX_SNR_DB."""
    if not (math.isfinite(snr_db) and snr_db <= _MAX_SNR_DB):
        raise ValueError(f"snr_db must be finite and at most {_MAX_SNR_DB!r} dB, got {snr_db!r}")
    return 10.0 ** (snr_db / 10.0)


def check_uint64(name: str, value: int) -> None:
    """Reject a seed or stream id that does not fit Philox's 64-bit key words."""
    if not (isinstance(value, numbers.Integral) and 0 <= value < _MAX_UINT64):
        raise ValueError(f"{name} must be a 64-bit unsigned integer, got {value!r}")


def block_generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent generator for (seed, stream); same pair, same draws.

    Its Philox is keyed by (seed, stream) directly, with the draws of
    Philox(key=[seed, stream]); its seed sequence holds that key and
    nothing else, so the generator cannot `spawn` child generators.
    """
    check_uint64("seed", seed)
    check_uint64("stream", stream)
    return _generator_at(seed, stream, 0)


def _generator_at(seed: int, stream: int, draw: int) -> np.random.Generator:
    """block_generator(seed, stream) advanced past its first `draw` doubles.

    Each Philox counter yields 4 words and each double takes one, so
    draw must be a multiple of 4 and the generator starts at counter
    draw // 4 with an empty buffer.
    """
    if draw % 4:
        raise ValueError(f"draw must be a multiple of 4, got {draw!r}")
    return np.random.Generator(np.random.Philox(_key_sequence()(seed, stream), counter=draw // 4))


@functools.cache
def _key_sequence() -> type:
    # Philox(key=...) seeds itself from a fresh SeedSequence(), which
    # draws OS entropy, before the key replaces it; a seed sequence whose
    # state is the key gives the same generator without it. The class is
    # made at the first draw, since its base class imports numpy.random.
    from numpy.random.bit_generator import ISeedSequence

    class KeySequence(ISeedSequence):
        """The key (seed, stream) as a seed sequence: Philox reads it as its two key words."""

        def __init__(self, seed: int, stream: int) -> None:
            self.key = (seed, stream)

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return np.array(self.key, dtype=dtype)

    return KeySequence


def _box_muller(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """The normals of the uniform pairs (u1[i], u2[i]), interleaved: z[2i], z[2i + 1].

    z = r·cos θ, r·sin θ with r = sqrt(-2·log1p(-u1)) and θ = 2π·u2,
    taken from t = tan(θ / 2) = tan(π·u2) as r·(1 - t²) / (1 + t²) and
    r·2t / (1 + t²): one tangent in place of a cosine and a sine, the
    same normals but for rounding. fl(2π·u2) = 2·fl(π·u2), so the angle
    is the same double; t stays finite, near 1.6e16 at u2 = 0.5, where
    z = -r and +0 to within rounding.
    """
    w = np.log1p(-u1)  # 1 - u1 in (0, 1], no log(0)
    w *= -2.0
    np.sqrt(w, out=w)
    t = np.multiply(np.pi, u2)
    np.tan(t, out=t)
    t2 = np.square(t)
    w /= 1.0 + t2
    np.subtract(1.0, t2, out=t2)
    z = np.empty(2 * len(u1))
    np.multiply(w, t2, out=z[0::2])
    w *= 2.0
    np.multiply(w, t, out=z[1::2])
    return z


def bpsk_matrix(
    params: SensingParams,
    rng: np.random.Generator,
    mode: SignalMode,
    num_rows: int,
) -> np.ndarray:
    """num_rows BPSK windows at power snr_linear, in units of the noise
    variance (baseband amplitude sqrt(snr_linear)), shape (num_rows, M)."""
    if not isinstance(mode, SignalMode):
        raise ValueError(f"unknown signal mode: {mode!r}")
    if num_rows < 1:
        raise ValueError(f"num_rows must be >= 1, got {num_rows!r}")
    m = params.num_samples
    if mode is SignalMode.BASEBAND_BPSK:
        # u - 0.5 < 0 exactly when u < 0.5, and u = 0.5 gives +0.0, so +amplitude
        signal = rng.random(num_rows * m).reshape(num_rows, m)
        signal -= 0.5
        return np.copysign(math.sqrt(params.snr_linear), signal, out=signal)
    bits_per_row = -(-m // SAMPLES_PER_BIT)
    bits = np.where(rng.random(num_rows * bits_per_row) < 0.5, -1.0, 1.0)
    bits = bits.reshape(num_rows, bits_per_row)
    symbols = np.repeat(bits, SAMPLES_PER_BIT, axis=1)[:, :m]
    # sqrt(2) amplitude compensates the 1/2 average power of cos^2. The
    # scaled carrier row is built once: ±(c·x) has the bits of (±c)·x.
    carrier = math.sqrt(2.0 * params.snr_linear) * np.cos(2.0 * np.pi * np.arange(m) / SAMPLES_PER_CYCLE)
    return symbols * carrier

