"""Seeded Monte Carlo estimation of the detection rates.

Determinism contract: trials are generated in fixed blocks of 1024,
each block from its own counter-based stream derived from (seed,
hypothesis, block index). Worker threads only pick which blocks to
fill, never how a block is generated, so counts are bit-identical
for any parallel_chunks value, including 1.

Two generative models are available. The sample model draws a full
window of M amplitudes per trial and averages their squares; it is
what a receiver actually computes, and its rates approach the CLT
family as M grows. The chisq model draws the 2u-dimensional
(noncentral) Gaussian vector whose squared norm has exactly the
chi-square law behind the gamma/Marcum family; it validates that
family without CLT error.
"""

from __future__ import annotations

import enum
import math
import os
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .analytic import RocCurve, RocPoint
from .detector import BisectionConfig, ThresholdPair, bisection_optimum_threshold
from .signal_model import (
    Hypothesis,
    SensingParams,
    SignalMode,
    block_generator,
    bpsk_matrix,
    check_uint64,
    noise_matrix,
    standard_normal,
)

__all__ = [
    "BLOCK_TRIALS",
    "GenerativeModel",
    "TrialConfig",
    "RateEstimate",
    "BandCounts",
    "EmpiricalReport",
    "CollisionRow",
    "draw_statistics",
    "count_band",
    "estimate_single",
    "estimate_double",
    "roc_empirical",
    "collision_sweep",
]

BLOCK_TRIALS = 1024

_PURPOSE_SHIFT = 48  # block index lives in the low 48 bits of the stream id


class GenerativeModel(enum.Enum):
    """Which random mechanism produces the decision statistic."""

    SAMPLE = "sample"
    CHISQ = "chisq"


@dataclass(frozen=True)
class TrialConfig:
    """Everything a Monte Carlo run needs to be reproducible."""

    num_trials: int
    seed: int
    params: SensingParams = field(default_factory=SensingParams)
    mode: SignalMode = SignalMode.BASEBAND_BPSK
    parallel_chunks: int = 1
    model: GenerativeModel = GenerativeModel.SAMPLE

    def __post_init__(self) -> None:
        if self.num_trials < 1:
            raise ValueError(f"num_trials must be >= 1, got {self.num_trials!r}")
        check_uint64("seed", self.seed)
        if self.parallel_chunks < 1:
            raise ValueError(f"parallel_chunks must be >= 1, got {self.parallel_chunks!r}")
        if not isinstance(self.mode, SignalMode):
            raise ValueError(f"unknown signal mode: {self.mode!r}")
        if not isinstance(self.model, GenerativeModel):
            raise ValueError(f"unknown generative model: {self.model!r}")


@dataclass(frozen=True)
class RateEstimate:
    """Binomial count with its rate and normal-approximation 95% CI."""

    successes: int
    trials: int

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials!r}")
        if not 0 <= self.successes <= self.trials:
            raise ValueError(f"successes must lie in [0, trials], got {self.successes!r}")

    @property
    def rate(self) -> float:
        return self.successes / self.trials

    @property
    def ci95_halfwidth(self) -> float:
        rate = self.rate
        return 1.96 * math.sqrt(rate * (1.0 - rate) / self.trials)


@dataclass(frozen=True)
class BandCounts:
    """First-pass Occupied, Idle and Fuzzy counts against one threshold pair.

    resolved_occupied counts the final Occupied verdicts of the
    bisection-resolved detector, or is None if none was asked for.
    Against a degenerate pair (lam, lam), above is the single-threshold count.
    """

    above: int
    below: int
    inside: int
    resolved_occupied: int | None = None


@dataclass(frozen=True)
class EmpiricalReport:
    """Empirical counterparts of the double-threshold rates.

    The fuzzy rates count trials whose first-pass verdict was Fuzzy,
    whichever resolver ran afterwards; they measure how much traffic a
    fusion center would see.
    """

    pf: RateEstimate
    pd: RateEstimate
    pm: RateEstimate
    pc: RateEstimate
    pna: RateEstimate
    fuzzy_rate_h0: RateEstimate
    fuzzy_rate_h1: RateEstimate


@dataclass(frozen=True)
class CollisionRow:
    """One threshold pair's collision summary.

    pc_double counts only energies below the lower level (fuzzy trials
    abstain); pc_optimum counts every trial the bisection finally calls
    Idle. pf is the double detector's false-alarm rate, energies above
    the upper level under the idle hypothesis.
    """

    pair: ThresholdPair
    lambda_opt: float
    pc_double: RateEstimate
    pc_optimum: RateEstimate
    pf: RateEstimate


def _hypothesis_purpose(truth: Hypothesis) -> int:
    return 0 if truth is Hypothesis.H0 else 1


def _fill_sample_blocks(
    out: np.ndarray,
    config: TrialConfig,
    truth: Hypothesis,
    block_indices: range,
) -> None:
    params = config.params
    purpose = _hypothesis_purpose(truth)
    for index in block_indices:
        start = index * BLOCK_TRIALS
        rows = min(BLOCK_TRIALS, out.size - start)
        rng = block_generator(config.seed, (purpose << _PURPOSE_SHIFT) | index)
        # always generate the whole block, then keep the head: a trial's
        # value must not depend on how many trials the run asked for
        received = noise_matrix(params, rng, BLOCK_TRIALS)
        if truth is Hypothesis.H1:
            received = received + bpsk_matrix(params, rng, config.mode, BLOCK_TRIALS)
        out[start : start + rows] = np.mean(np.square(received[:rows]), axis=1)


def _fill_chisq_blocks(
    out: np.ndarray,
    config: TrialConfig,
    truth: Hypothesis,
    block_indices: range,
) -> None:
    params = config.params
    purpose = _hypothesis_purpose(truth)
    dim = 2 * params.time_bandwidth
    offset = math.sqrt(2.0 * params.snr_linear)
    for index in block_indices:
        start = index * BLOCK_TRIALS
        rows = min(BLOCK_TRIALS, out.size - start)
        rng = block_generator(config.seed, (purpose << _PURPOSE_SHIFT) | index)
        # full block for the same reason as the sample model above
        z = standard_normal(rng, BLOCK_TRIALS * dim).reshape(BLOCK_TRIALS, dim)[:rows]
        if truth is Hypothesis.H1:
            z[:, 0] += offset
        out[start : start + rows] = params.noise_variance * np.sum(np.square(z), axis=1)


def _statistics(config: TrialConfig, truth: Hypothesis, count: int | None = None) -> np.ndarray:
    """Decision statistics for `count` trials under `truth`.

    The first k trials of any run are a prefix of a longer run with
    the same config, because blocks are keyed by index alone.
    """
    if count is None:
        count = config.num_trials
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    fill = _fill_sample_blocks if config.model is GenerativeModel.SAMPLE else _fill_chisq_blocks
    out = np.empty(count)
    num_blocks = -(-count // BLOCK_TRIALS)
    if config.parallel_chunks == 1 or num_blocks == 1:
        fill(out, config, truth, range(num_blocks))
        return out
    # one task per worker, and at most one worker per CPU
    workers = min(config.parallel_chunks, num_blocks, os.cpu_count() or 1)
    per_worker = -(-num_blocks // workers)
    ranges = [
        range(w * per_worker, min((w + 1) * per_worker, num_blocks))
        for w in range(workers)
    ]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fill, out, config, truth, r) for r in ranges if len(r)]
        for future in futures:
            future.result()
    return out


def draw_statistics(
    config: TrialConfig, n_h0: int | None = None, n_h1: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(H0, H1) decision statistics, num_trials each unless n_h0 / n_h1 say otherwise.

    Draw once and count every threshold against the same arrays.
    """
    return _statistics(config, Hypothesis.H0, n_h0), _statistics(config, Hypothesis.H1, n_h1)


def count_band(stats: np.ndarray, pair: ThresholdPair, bisection: BisectionConfig | None = None) -> BandCounts:
    """Verdict counts of `stats` against `pair`; resolves fuzzy trials given a bisection."""
    occupied, idle, fuzzy = _band_masks(stats, pair)
    resolved = None
    if bisection is not None:
        resolved = int(np.count_nonzero(_resolve_occupied(stats, occupied, fuzzy, pair, bisection)))
    return BandCounts(
        above=int(np.count_nonzero(occupied)),
        below=int(np.count_nonzero(idle)),
        inside=int(np.count_nonzero(fuzzy)),
        resolved_occupied=resolved,
    )


def estimate_single(threshold: float, config: TrialConfig, truth: Hypothesis) -> RateEstimate:
    """Rate of the statistic exceeding a single threshold under `truth`."""
    if not (math.isfinite(threshold) and threshold >= 0.0):
        raise ValueError(f"threshold must be finite and >= 0, got {threshold!r}")
    counts = count_band(_statistics(config, truth), ThresholdPair(threshold, threshold))
    return RateEstimate(successes=counts.above, trials=config.num_trials)


def _band_masks(stats: np.ndarray, pair: ThresholdPair) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    occupied = stats > pair.lambda_high
    idle = stats < pair.lambda_low
    fuzzy = ~(occupied | idle)
    return occupied, idle, fuzzy


def _bisect_array(energies: np.ndarray, pair: ThresholdPair, config: BisectionConfig) -> np.ndarray:
    """Resolved thresholds for many in-band energies at once.

    Elementwise identical to bisection_optimum_threshold: same branch
    rule, same last-midpoint result.
    """
    low = np.full(energies.shape, pair.lambda_low)
    high = np.full(energies.shape, pair.lambda_high)
    for _ in range(config.max_iter):
        mid = (low + high) / 2.0
        shrink_high = (low - energies) * (mid - energies) < 0.0
        high = np.where(shrink_high, mid, high)
        low = np.where(shrink_high, low, mid)
    return mid


def _split_trials(num_trials: int) -> tuple[int, int]:
    """(n_h0, n_h1) with n_h1 = ceil(num_trials / 2): an odd total gives H1 the extra trial."""
    n_h1 = (num_trials + 1) // 2
    n_h0 = num_trials - n_h1
    if n_h0 < 1:
        raise ValueError(f"num_trials={num_trials!r} too small to split between H0 and H1")
    return n_h0, n_h1


def estimate_double(
    pair: ThresholdPair,
    config: TrialConfig,
    resolver: str = "report-fuzzy",
) -> EmpiricalReport:
    """Empirical double-threshold rates over a half-H0, half-H1 trial set.

    resolver "report-fuzzy" leaves fuzzy trials undecided: they count
    toward the fuzzy rates and toward pna (the secondary user stays
    off the band while the report is pending) but not toward pf/pd/pc.
    resolver "bisection-resolve" converts each fuzzy trial to a binary
    verdict against its own resolved threshold, after which every
    count is binary and pc + pd exhaust the H1 trials.
    """
    if resolver not in ("report-fuzzy", "bisection-resolve"):
        raise ValueError(f"unknown resolver: {resolver!r}")
    n_h0, n_h1 = _split_trials(config.num_trials)
    stats_h0, stats_h1 = draw_statistics(config, n_h0, n_h1)
    resolve = BisectionConfig() if resolver == "bisection-resolve" else None
    h0 = count_band(stats_h0, pair, resolve)
    h1 = count_band(stats_h1, pair, resolve)
    if resolver == "report-fuzzy":
        pf_succ = h0.above
        pd_succ = h1.above
        pc_succ = h1.below
        pna_succ = h0.above + h0.inside
    else:
        pf_succ = h0.resolved_occupied
        pd_succ = h1.resolved_occupied
        pc_succ = n_h1 - pd_succ
        pna_succ = pf_succ
    return EmpiricalReport(
        pf=RateEstimate(pf_succ, n_h0),
        pd=RateEstimate(pd_succ, n_h1),
        pm=RateEstimate(n_h1 - pd_succ, n_h1),
        pc=RateEstimate(pc_succ, n_h1),
        pna=RateEstimate(pna_succ, n_h0),
        fuzzy_rate_h0=RateEstimate(h0.inside, n_h0),
        fuzzy_rate_h1=RateEstimate(h1.inside, n_h1),
    )


def _resolve_occupied(
    stats: np.ndarray,
    occupied: np.ndarray,
    fuzzy: np.ndarray,
    pair: ThresholdPair,
    bisection: BisectionConfig,
) -> np.ndarray:
    final = occupied.copy()
    if fuzzy.any():
        fuzzy_stats = stats[fuzzy]
        resolved = _bisect_array(fuzzy_stats, pair, bisection)
        final[fuzzy] = fuzzy_stats > resolved
    return final


def roc_empirical(lambda_grid: Sequence[float], config: TrialConfig) -> RocCurve:
    """Empirical single-threshold operating curve.

    One set of num_trials statistics per hypothesis is shared across
    the whole grid (common random numbers), so the curve is monotone
    by construction, not just in expectation.
    """
    levels = [ThresholdPair(lam, lam) for lam in sorted((float(x) for x in lambda_grid), reverse=True)]
    if not levels:
        raise ValueError("lambda_grid must be non-empty")
    stats_h0, stats_h1 = draw_statistics(config)
    points = []
    for level in levels:
        pf = count_band(stats_h0, level).above / config.num_trials
        pd = count_band(stats_h1, level).above / config.num_trials
        points.append(RocPoint(pf=pf, pd=pd, threshold=level.lambda_low))
    return RocCurve(points=tuple(points))


def collision_sweep(
    pairs: Sequence[ThresholdPair],
    energy_scenarios: Sequence[float],
    config: TrialConfig,
    bisection: BisectionConfig | None = None,
) -> list[CollisionRow]:
    """Collision comparison across threshold pairs on shared trials.

    energy_scenarios holds the representative fuzzy energy used to
    derive each pair's published threshold; give one value per pair or
    a single value for all. The same statistics feed every pair, so
    rows differ only through the thresholds.
    """
    if not pairs:
        raise ValueError("pairs must be non-empty")
    if len(energy_scenarios) == 1:
        scenarios = [float(energy_scenarios[0])] * len(pairs)
    elif len(energy_scenarios) == len(pairs):
        scenarios = [float(x) for x in energy_scenarios]
    else:
        raise ValueError(
            f"need 1 or {len(pairs)} energy scenarios, got {len(energy_scenarios)}"
        )
    if bisection is None:
        bisection = BisectionConfig()
    # thresholds before the draw, so an energy outside its band costs no trials
    resolved = [bisection_optimum_threshold(pair, energy, bisection) for pair, energy in zip(pairs, scenarios)]
    n_h0, n_h1 = _split_trials(config.num_trials)
    stats_h0, stats_h1 = draw_statistics(config, n_h0, n_h1)
    rows = []
    for pair, result in zip(pairs, resolved):
        h0 = count_band(stats_h0, pair)
        h1 = count_band(stats_h1, pair, bisection)
        rows.append(
            CollisionRow(
                pair=pair,
                lambda_opt=result.lambda_opt,
                pc_double=RateEstimate(h1.below, n_h1),
                pc_optimum=RateEstimate(n_h1 - h1.resolved_occupied, n_h1),
                pf=RateEstimate(h0.above, n_h0),
            )
        )
    return rows
