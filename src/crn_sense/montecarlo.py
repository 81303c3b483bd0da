"""Seeded Monte Carlo estimation of the detection rates.

Determinism contract: trials are generated in fixed blocks of 1024,
each block from its own counter-based stream derived from (seed,
hypothesis, block index). Worker threads, one per chunk up to the CPU
count, only pick which blocks to fill, taking the next index from one
shared iterator, never how a block is generated, so counts are
bit-identical for any parallel_chunks value, including 1. Both models read a block
tile by tile, and tiles of rows, like chunks, only choose how its
stream is transformed: each tile reads its uniforms through cursors
that start at fixed counter offsets of the block's stream, so a tile
sees exactly the draws a whole-block read would give its rows. An
idle row of whole Box-Muller pairs (every chisq row, and a sample
window of even M) is a sum of the pairs' squared norms, r² =
-2·log1p(-u1) whatever the angle, so it reads only the pairs' first
uniforms and leaves the rest unread; odd-M and H1 rows square every
normal, each pair's two from one tangent of its half angle (see
signal_model._box_muller). Every row is drawn at unit noise, with its
signal in units of the noise, and its sum is divided by M (sample
model) and multiplied by the noise variance once, last. A process
keeps up to _MEMO_BYTES (32 MiB) of blocks' statistics in a
least-recently-used cache keyed by (seed, params, model, mode,
hypothesis, block index, rows), a partial last block under its own
size, and a repeat call copies them instead of drawing again; a block
depends on its key alone, so this changes time, never a bit. The
library's counters order each hypothesis's fresh draw in place and
count it before drawing the other, so one array of statistics is live
at a time at any depth; count_bands, given the caller's array, orders
a copy. Ordering sorts only the statistics in the pairs' span, from
their lowest lambda_low to their highest lambda_high, and counts the
rest by comparison: a single level sorts only its ties.

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
import functools
import math
import numbers
import os
import threading
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .analytic import _SLICE_CELLS, RocCurve, RocPoint, _closed_forms, tails
from .detector import BisectionConfig, ThresholdPair, _cell_edges, _midpoints, bisection_optimum_threshold
from .signal_model import (
    Hypothesis,
    SensingParams,
    SignalMode,
    _box_muller,
    _generator_at,
    block_generator,
    bpsk_matrix,
    check_uint64,
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
    "count_bands",
    "estimate_single",
    "estimate_double",
    "roc_empirical",
    "roc_table",
    "collision_sweep",
]

BLOCK_TRIALS = 1024

_PURPOSE_SHIFT = 48  # block index lives in the low 48 bits of the stream id
# a worker holds one tile of either model, so this caps a block's time
# only, which grows with its normals
_MAX_BLOCK_NORMALS = 2**23
# _block keeps at most this many bytes of statistics, one block's
# 8 KiB or less an entry, evicting the least recently used
_MEMO_BYTES = 32 * 2**20
# _compact compares this many statistics at a time: a chunk's masks
# and its in-span copies stay within 88 KiB whatever the draw's size
_SPAN_CHUNK = 2**13


class GenerativeModel(enum.Enum):
    """Which random mechanism produces the decision statistic."""

    SAMPLE = "sample"
    CHISQ = "chisq"


# the closed-form family that describes each generative model's statistic
_FORMS = {GenerativeModel.SAMPLE: "gaussian", GenerativeModel.CHISQ: "gamma-marcum"}


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
        if not (isinstance(self.num_trials, numbers.Integral) and self.num_trials >= 1):
            raise ValueError(f"num_trials must be an integer >= 1, got {self.num_trials!r}")
        check_uint64("seed", self.seed)
        if not (isinstance(self.parallel_chunks, numbers.Integral) and self.parallel_chunks >= 1):
            raise ValueError(f"parallel_chunks must be an integer >= 1, got {self.parallel_chunks!r}")
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


@functools.lru_cache(maxsize=_MEMO_BYTES // (BLOCK_TRIALS * 8))
def _block(
    seed: int,
    params: SensingParams,
    model: GenerativeModel,
    mode: SignalMode,
    truth: Hypothesis,
    index: int,
    rows: int,
) -> np.ndarray:
    """Read-only statistics of the first `rows` trials of block `index`."""
    purpose = _hypothesis_purpose(truth)
    chisq = model is GenerativeModel.CHISQ
    # a row is one window of M samples, or the chi-square model's 2u dimensions
    m = 2 * params.time_bandwidth if chisq else params.num_samples
    pairs = BLOCK_TRIALS * m // 2
    # an even row count keeps every tile on a Box-Muller pair boundary
    tile_rows = 2 * max(1, 2**15 // m)
    out = np.empty(rows)
    stream = (purpose << _PURPOSE_SHIFT) | index
    # an idle row of whole pairs is a sum of the pairs' squared norms,
    # r² = -2·log1p(-u1) whatever the angle, so it needs no second
    # uniforms and no tangent; a signal's cross term needs every
    # normal, and an odd row splits a pair with the next row
    radii_only = truth is Hypothesis.H0 and m % 2 == 0
    # cursors into the block's one stream, at the pairs' first
    # uniforms, their second ones, and a sample window's signal,
    # which follow all of the noise's; pairs is a multiple of 4
    # (m·512), a whole counter
    first = block_generator(seed, stream)
    if not radii_only:
        second = _generator_at(seed, stream, pairs)
    if truth is Hypothesis.H1 and not chisq:
        signal = _generator_at(seed, stream, 2 * pairs)
    # rows are drawn at unit noise and scaled by the noise variance once,
    # last, so the variance overflows no step before the statistic; a
    # statistic past the largest double reads inf, above every finite
    # threshold, its right verdict
    with np.errstate(over="ignore"):
        for r0 in range(0, rows, tile_rows):
            r1 = min(r0 + tile_rows, rows)
            p0, p1 = r0 * m // 2, -(-r1 * m // 2)
            tile = out[r0:r1]
            if radii_only:
                terms = (-2.0 * np.log1p(-first.random(p1 - p0))).reshape(r1 - r0, m // 2)
            else:
                terms = _box_muller(first.random(p1 - p0), second.random(p1 - p0))
                terms = terms[: (r1 - r0) * m].reshape(r1 - r0, m)
                if truth is Hypothesis.H1 and chisq:
                    terms[:, 0] += math.sqrt(2.0 * params.snr_linear)
                elif truth is Hypothesis.H1:
                    terms += bpsk_matrix(params, signal, mode, r1 - r0)
                np.square(terms, out=terms)
            np.sum(terms, axis=1, out=tile)
            if not chisq:
                tile /= m
                # a window whose signal alone sums past the largest double
                # (snr·M ≳ 1.8e308) may still have a finite mean; those
                # rows are averaged again, term by term
                spilled = np.isinf(tile)
                if spilled.any():
                    tile[spilled] = np.sum(terms[spilled] / m, axis=1)
        out *= params.noise_variance
    out.flags.writeable = False
    return out


def _statistics(config: TrialConfig, truth: Hypothesis, count: int | None = None) -> np.ndarray:
    """Decision statistics for `count` trials under `truth`.

    The first k trials of any run are a prefix of a longer run with
    the same config, because blocks are keyed by index alone. Each
    block comes from the cached `_block`, so a block already drawn in
    this process is copied, not drawn again.
    """
    if count is None:
        count = config.num_trials
    if not (isinstance(count, numbers.Integral) and count >= 1):
        raise ValueError(f"count must be an integer >= 1, got {count!r}")
    if not isinstance(truth, Hypothesis):
        raise ValueError(f"unknown hypothesis: {truth!r}")
    chisq = config.model is GenerativeModel.CHISQ
    name = "time_bandwidth" if chisq else "num_samples"
    value = getattr(config.params, name)
    normals = BLOCK_TRIALS * value * (2 if chisq else 1)
    if normals > _MAX_BLOCK_NORMALS:
        raise ValueError(
            f"{config.model.value} model: {name}={value!r} needs {normals} normals per "
            f"{BLOCK_TRIALS}-trial block, more than the {_MAX_BLOCK_NORMALS} allowed"
        )
    out = np.empty(count)
    num_blocks = -(-count // BLOCK_TRIALS)
    key = (config.seed, config.params, config.model, config.mode, truth)

    def copy(index: int) -> None:
        start = index * BLOCK_TRIALS
        rows = min(BLOCK_TRIALS, count - start)
        out[start : start + rows] = _block(*key, index, rows)

    # at most one worker per CPU, the caller and workers - 1 threads,
    # each taking the next block index from one shared iterator, whose
    # every next() the interpreter lock makes atomic; the first exception
    # a worker raised is raised once every worker has ended
    workers = min(config.parallel_chunks, num_blocks, os.cpu_count() or 1)
    indices = iter(range(num_blocks))
    errors = []

    def work() -> None:
        try:
            for index in indices:
                copy(index)
        except BaseException as exc:  # re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=work) for _ in range(workers - 1)]
    for thread in threads:
        thread.start()
    work()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return out


def draw_statistics(
    config: TrialConfig, n_h0: int | None = None, n_h1: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(H0, H1) decision statistics, num_trials each unless n_h0 / n_h1 say otherwise.

    Draw once and count every threshold against the same arrays.
    """
    return _statistics(config, Hypothesis.H0, n_h0), _statistics(config, Hypothesis.H1, n_h1)


def count_bands(
    stats: np.ndarray, pairs: Sequence[ThresholdPair], bisection: BisectionConfig | None = None
) -> list[BandCounts]:
    """Verdict counts of `stats` against each pair; resolves fuzzy trials given a bisection.

    One copy of `stats` serves every pair, so count all of one array's
    pairs in one call; `stats` itself is left as it was. Only the
    statistics from the pairs' lowest lambda_low to their highest
    lambda_high are sorted; those outside are counted by comparison.
    The library's own counters order each fresh draw in place instead,
    and count it by the same rules.
    """
    return _count_span(np.array(stats).reshape(-1), pairs, bisection)


def count_band(stats: np.ndarray, pair: ThresholdPair, bisection: BisectionConfig | None = None) -> BandCounts:
    """count_bands for one pair."""
    return count_bands(stats, [pair], bisection)[0]


def _count_span(
    stats: np.ndarray, pairs: Sequence[ThresholdPair], bisection: BisectionConfig | None = None
) -> list[BandCounts]:
    """count_bands of a 1-D array that is reordered in place, as a
    counter's own fresh draw may be: no copy is made.

    The span runs from the pairs' lowest lambda_low to their highest
    lambda_high. The statistics below it and above it are only counted;
    the rest, those in the span and any NaN, which compares as neither,
    move to the front of `stats`, and only they are sorted. Every
    band's counts come from that sorted front and the two totals.
    """
    if not pairs:
        return []
    low = min(pair.lambda_low for pair in pairs)
    high = max(pair.lambda_high for pair in pairs)
    kept, under, over = _compact(stats, low, high)
    span = stats[:kept]
    span.sort()
    return _count_sorted(span, pairs, bisection, under, over)


def _compact(stats: np.ndarray, low: float, high: float) -> tuple[int, int, int]:
    """(kept, under, over): the statistics neither below low nor above
    high moved to stats[:kept] in their order, with the counts of those
    below and above, compared _SPAN_CHUNK at a time. A function of its
    own, so its chunk arrays are freed before the count begins."""
    kept = under = over = 0
    for start in range(0, stats.size, _SPAN_CHUNK):
        chunk = stats[start : start + _SPAN_CHUNK]
        below, above = chunk < low, chunk > high
        lower, upper = int(np.count_nonzero(below)), int(np.count_nonzero(above))
        under, over = under + lower, over + upper
        inside = chunk.size - lower - upper
        if inside and (kept < start or inside < chunk.size):
            # either read is a copy, so the front may overlap the chunk;
            # numpy's masked read is the faster where most of a chunk is
            # kept, np.compress where little is (4 ns against 2 a statistic)
            keep = ~(below | above)
            stats[kept : kept + inside] = chunk[keep] if 2 * inside > chunk.size else np.compress(keep, chunk)
        kept += inside
    return kept, under, over


def _count_sorted(
    ordered: np.ndarray,
    pairs: Sequence[ThresholdPair],
    bisection: BisectionConfig | None = None,
    under: int = 0,
    over: int = 0,
) -> list[BandCounts]:
    """count_bands of a sorted 1-D array, beside `under` statistics
    below every lambda_low and `over` above every lambda_high.

    A band's Idle, Fuzzy and Occupied trials are three slices of
    `ordered`, found by binary search at lambda_low (side "left", as
    stat < lambda_low) and at lambda_high (side "right", as stat >
    lambda_high), with the outside statistics added to its Idle and
    Occupied ends. A NaN sorts last; no comparison calls it Idle or
    Occupied, so it counts as Fuzzy, and it is never resolved Occupied.
    """
    below = np.searchsorted(ordered, [pair.lambda_low for pair in pairs], "left")
    top = np.searchsorted(ordered, [pair.lambda_high for pair in pairs], "right")
    above = np.searchsorted(ordered, np.nan) - top
    total = under + ordered.size + over
    counts = []
    for pair, start, stop, higher in zip(pairs, below.tolist(), top.tolist(), above.tolist()):
        idle, busy = under + start, over + higher
        resolved = None
        if bisection is not None:
            resolved = busy + _resolved_count(ordered[start:stop], pair, bisection.max_iter)
        counts.append(BandCounts(above=busy, below=idle, inside=total - busy - idle, resolved_occupied=resolved))
    return counts


def _resolved_count(fuzzy: np.ndarray, pair: ThresholdPair, depth: int) -> int:
    """How many of a band's sorted fuzzy statistics the bisection resolves Occupied.

    An energy strictly between two neighbouring edges of _cell_edges
    walked down to their cell. One tied with an edge other than
    lambda_high went up at that edge's step and at every later one, so
    it ends Idle; one on lambda_high went up at every step, into the
    top cell. At full depth an odd cell kept the upper half of its last
    bracket, so the Occupied energies are those strictly inside an odd
    cell, and those on lambda_high if it lies above the last midpoint.
    The cells are enumerated to depth 12 at most; deeper, the energies
    walk on in _midpoints from their cells, 2^12 energies at a time.
    """
    if fuzzy.size == 0:
        return 0
    level = min(depth, _SLICE_CELLS.bit_length() - 1)
    edges = _cell_edges(pair.lambda_low, pair.lambda_high, level)
    if level == depth:
        # each odd cell's energies: those strictly inside, and in the top
        # cell those on lambda_high too; a cell of equal edges holds none
        starts = np.searchsorted(fuzzy, edges[1::2], "right")
        stops = np.searchsorted(fuzzy, edges[2::2], "left")
        stops[-1] = fuzzy.size
        return int(np.maximum(stops - starts, 0).sum())
    occupied = 0
    for energies in np.split(fuzzy, range(_SLICE_CELLS, fuzzy.size, _SLICE_CELLS)):
        # a tie starts at low == energy, so it ends Idle; lambda_high's cell is the top one
        cells = np.minimum(np.searchsorted(edges, energies, "right"), edges.size - 1)
        for mid in _midpoints(edges[cells - 1], edges[cells], energies, depth - level):
            pass  # only the last midpoint decides
        occupied += int(np.count_nonzero(energies > mid))
    return occupied


def estimate_single(threshold: float, config: TrialConfig, truth: Hypothesis) -> RateEstimate:
    """Rate of the statistic exceeding a single threshold under `truth`."""
    if not (math.isfinite(threshold) and threshold >= 0.0):
        raise ValueError(f"threshold must be finite and >= 0, got {threshold!r}")
    [counts] = _count_span(_statistics(config, truth), [ThresholdPair(threshold, threshold)])
    return RateEstimate(successes=counts.above, trials=config.num_trials)


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
    resolve = BisectionConfig() if resolver == "bisection-resolve" else None
    # each draw is ordered in place and dropped before the other is drawn
    [h0] = _count_span(_statistics(config, Hypothesis.H0, n_h0), [pair], resolve)
    [h1] = _count_span(_statistics(config, Hypothesis.H1, n_h1), [pair], resolve)
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


def roc_empirical(lambda_grid: Sequence[float], config: TrialConfig) -> RocCurve:
    """Empirical single-threshold operating curve.

    One set of num_trials statistics per hypothesis is shared across
    the whole grid (common random numbers), so the curve is monotone
    by construction, not just in expectation.
    """
    levels = [ThresholdPair(lam, lam) for lam in sorted((float(x) for x in lambda_grid), reverse=True)]
    if not levels:
        raise ValueError("lambda_grid must be non-empty")
    h0 = _count_span(_statistics(config, Hypothesis.H0), levels)
    h1 = _count_span(_statistics(config, Hypothesis.H1), levels)
    points = [
        RocPoint(pf=idle.above / config.num_trials, pd=busy.above / config.num_trials, threshold=level.lambda_low)
        for level, idle, busy in zip(levels, h0, h1)
    ]
    return RocCurve(points=tuple(points))


def roc_table(
    pairs: Sequence[ThresholdPair],
    config: TrialConfig,
    bisection: BisectionConfig,
) -> dict[str, list[tuple[RocPoint, RateEstimate, RateEstimate]]]:
    """Closed-form and empirical operating points of the three detectors.

    Returns {"single" | "double" | "optimum": rows}, one row per pair in
    the given order: the closed-form RocPoint at threshold lambda_low,
    then the H0 and H1 counts. "single" thresholds at lambda_low,
    "double" at lambda_high, and "optimum" bisects the fuzzy trials.
    The closed forms are config.model's family, and every variant is
    counted on one draw per hypothesis.
    """
    if not pairs:
        raise ValueError("pairs must be non-empty")
    # closed forms before the draw, so that an invalid level or a numeric
    # failure costs no trials: every band's lower level, then every upper
    # one, then each band's resolved detector, in shared calls per tail
    survivals = tails(config.params, _FORMS[config.model])
    levels = [pair.lambda_low for pair in pairs] + [pair.lambda_high for pair in pairs]
    (pf_edges, pf_res), (pd_edges, pd_res) = _closed_forms(survivals, levels, pairs, bisection)
    # as in levels: every band's lower level as a single threshold, then every band
    bands = [ThresholdPair(pair.lambda_low, pair.lambda_low) for pair in pairs] + list(pairs)
    # both draws before either count, each ordered in place: on the roc
    # command, counting one before drawing the other raised peak RSS
    counts0, counts1 = (_count_span(stats, bands, bisection) for stats in draw_statistics(config))
    trials, upper = config.num_trials, len(pairs)
    table = {"single": [], "double": [], "optimum": []}
    for index, pair in enumerate(pairs):
        single, band = index, upper + index
        variants = {
            "single": (pf_edges[single], pd_edges[single], counts0[single].above, counts1[single].above),
            "double": (pf_edges[band], pd_edges[band], counts0[band].above, counts1[band].above),
            "optimum": (pf_res[index], pd_res[index], counts0[band].resolved_occupied, counts1[band].resolved_occupied),
        }
        for name, (pf, pd, h0, h1) in variants.items():
            point = RocPoint(pf=pf, pd=pd, threshold=pair.lambda_low)
            table[name].append((point, RateEstimate(h0, trials), RateEstimate(h1, trials)))
    return table


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
    counts0 = _count_span(_statistics(config, Hypothesis.H0, n_h0), pairs)
    counts = zip(counts0, _count_span(_statistics(config, Hypothesis.H1, n_h1), pairs, bisection))
    rows = []
    for pair, result, (h0, h1) in zip(pairs, resolved, counts):
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
