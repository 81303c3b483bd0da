"""Closed-form detection probabilities.

Two formula families coexist and are kept apart on purpose. The
"gaussian" family applies the central limit theorem to the averaged
statistic and is keyed on the window length M; the "gamma-marcum"
family treats the unaveraged statistic as (noncentral) chi-square
with 2u degrees of freedom and is keyed on the order u. They are not
numerically interchangeable, so the caller picks one by name in
`tails(params, form)`: the pair of survival functions (idle, busy) from
which the double-threshold report and the resolved detector's closed
form read every rate. A command's levels and its bands' cell edges
share survival calls of at most 2^12 + 1 levels, each element with
the bits of its float call. pf_gaussian is pd_gaussian at zero SNR.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .detector import BisectionConfig, ThresholdPair
from .specfun import checked_values, gaussian_q, gaussian_q_inv, marcum_q, reg_upper_gamma

__all__ = [
    "RocPoint",
    "RocCurve",
    "DoubleThresholdReport",
    "pf_gaussian",
    "pd_gaussian",
    "pf_gamma",
    "pd_marcum",
    "double_threshold_report",
    "threshold_for_target_pf",
    "tails",
    "resolved_occupied_probability",
]

_MONOTONE_SLACK = 1e-12  # roundoff allowance when validating curve ordering
_SLICE_CELLS = 2**12  # cells per slice of the resolved closed form and Monte Carlo count

Survival = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class RocPoint:
    """One operating point: false-alarm rate, detection rate, threshold."""

    pf: float
    pd: float
    threshold: float


@dataclass(frozen=True)
class RocCurve:
    """Operating points ordered by decreasing threshold.

    Along the sequence both rates are nondecreasing (lowering the
    threshold can only add detections and false alarms); construction
    rejects anything else, with a 1e-12 allowance for roundoff.
    """

    points: tuple[RocPoint, ...]

    def __post_init__(self) -> None:
        prev: RocPoint | None = None
        for point in self.points:
            if not (0.0 <= point.pf <= 1.0 and 0.0 <= point.pd <= 1.0):
                raise ValueError(f"rates must lie in [0, 1], got {point!r}")
            if prev is not None:
                if point.threshold > prev.threshold:
                    raise ValueError("points must be ordered by decreasing threshold")
                if point.pf < prev.pf - _MONOTONE_SLACK or point.pd < prev.pd - _MONOTONE_SLACK:
                    raise ValueError("rates must be nondecreasing along the curve")
            prev = point

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class DoubleThresholdReport:
    """The five closed-form rates of a double-threshold detector.

    pf and pd condition on crossing the upper level; pm is their
    complement; pc is the chance of sitting below the lower level
    while the band is busy (the secondary user would transmit into
    the primary); pna the chance of sitting above it while the band
    is idle (the secondary user is needlessly locked out).
    """

    pf: float
    pd: float
    pm: float
    pc: float
    pna: float

    def __post_init__(self) -> None:
        for name in ("pf", "pd", "pm", "pc", "pna"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
        if abs(self.pm - (1.0 - self.pd)) > 1e-12:
            raise ValueError("pm must equal 1 - pd")


def _check_gaussian_args(noise_variance: float, num_samples: int) -> None:
    if not (math.isfinite(noise_variance) and noise_variance > 0.0):
        raise ValueError(f"noise_variance must be positive, got {noise_variance!r}")
    if num_samples < 1:
        raise ValueError(f"num_samples must be >= 1, got {num_samples!r}")


def _check_snr(snr_linear: float) -> None:
    if not (math.isfinite(snr_linear) and snr_linear >= 0.0):
        raise ValueError(f"snr_linear must be finite and >= 0, got {snr_linear!r}")


# Each rate below takes a threshold or an ndarray of them, as the
# special functions do: a float gives a float, an array an array.


def pf_gaussian(threshold, noise_variance: float, num_samples: int):
    """False-alarm probability, CLT family: pd_gaussian at zero SNR.

    Q((threshold / noise_variance - 1) * sqrt(num_samples / 2)), to the bit.
    """
    return pd_gaussian(threshold, noise_variance, 0.0, num_samples)


def pd_gaussian(threshold, noise_variance: float, snr_linear: float, num_samples: int):
    """Detection probability, CLT family.

    Q((threshold / noise_variance - snr - 1) * sqrt(num_samples / (2 (2 snr + 1)))).
    """
    _check_gaussian_args(noise_variance, num_samples)
    _check_snr(snr_linear)
    checked_values(threshold, "threshold must be finite", nonnegative=False)
    arg = (threshold / noise_variance - snr_linear - 1.0) * math.sqrt(
        num_samples / (2.0 * (2.0 * snr_linear + 1.0))
    )
    return gaussian_q(arg)


def pf_gamma(threshold, u: int):
    """False-alarm probability, chi-square family: upper tail at threshold/2."""
    checked_values(threshold, "threshold must be finite and >= 0")
    return reg_upper_gamma(u, threshold / 2.0)


def pd_marcum(threshold, snr_linear: float, u: int):
    """Detection probability, noncentral chi-square family."""
    _check_snr(snr_linear)
    checked_values(threshold, "threshold must be finite and >= 0")
    return marcum_q(u, math.sqrt(2.0 * snr_linear), np.sqrt(threshold))


def double_threshold_report(pair: ThresholdPair, survivals: tuple[Survival, Survival]) -> DoubleThresholdReport:
    """All five closed-form rates for one threshold pair, from a `tails` pair."""
    levels = np.array([pair.lambda_high, pair.lambda_low])
    busy, idle = (survival(levels).tolist() for survival in survivals[::-1])
    return _report(idle, busy)


def _report(idle: list[float], busy: list[float]) -> DoubleThresholdReport:
    # the five rates from each tail's values at (lambda_high, lambda_low)
    (pf_high, pf_low), (pd_high, pd_low) = idle, busy
    return DoubleThresholdReport(pf=pf_high, pd=pd_high, pm=1.0 - pd_high, pc=1.0 - pd_low, pna=pf_low)


def threshold_for_target_pf(target_pf: float, noise_variance: float, num_samples: int) -> float:
    """Threshold whose CLT-family false-alarm rate equals target_pf."""
    _check_gaussian_args(noise_variance, num_samples)
    if not (0.0 < target_pf < 1.0):
        raise ValueError(f"target_pf must lie in (0, 1), got {target_pf!r}")
    return noise_variance * (1.0 + gaussian_q_inv(target_pf) * math.sqrt(2.0 / num_samples))


def tails(params, form: str) -> tuple[Survival, Survival]:
    """(Pr[T > x | idle], Pr[T > x | busy]) of one formula family.

    params carries the sensing configuration (window length, SNR,
    noise variance, order); form picks the family. "gaussian" reads x
    as mean square per sample; "gamma-marcum" reads it as collected
    energy and scales it by the noise variance. Each survival maps an
    ndarray of levels to the ndarray of their tails, element by element
    with the bits of a float call, which gives a float.
    """
    snr = params.snr_linear
    noise_variance = params.noise_variance
    if form == "gaussian":
        num_samples = params.num_samples

        def idle_tail(x):
            return pf_gaussian(x, noise_variance, num_samples)

        def busy_tail(x):
            return pd_gaussian(x, noise_variance, snr, num_samples)
    elif form == "gamma-marcum":
        order = params.time_bandwidth

        def idle_tail(x):
            return pf_gamma(x / noise_variance, order)

        def busy_tail(x):
            return pd_marcum(x / noise_variance, snr, order)
    else:
        raise ValueError(f"form must be 'gaussian' or 'gamma-marcum', got {form!r}")
    return idle_tail, busy_tail


def resolved_occupied_probability(pair: ThresholdPair, config: BisectionConfig, survival: Survival) -> float:
    """Pr[final verdict is Occupied] for the bisection-resolved detector.

    survival maps an ndarray of levels x to the ndarray of Pr[T > x],
    the statistic's survival, continuous in x; `tails` gives such
    functions. After max_iter halvings the resolved threshold is
    constant on each of the 2^max_iter equal sub-cells of the band, and
    within a cell the verdict is too, so the in-band contribution is a
    finite sum of survival differences over the cells whose verdict is
    Occupied. An energy in cell k ends in a bracket whose last halving
    kept the upper half exactly when k is odd, and only then does it
    exceed the last midpoint, so the Occupied cells are the odd-indexed
    ones. The cell edges go to survival in top-down slices of at most
    2^12 + 1, one slice up to depth 12; a command's bands share calls of
    at most 2^12 + 1 levels, which moves no bit of this one-band call.
    Cells narrower than one ulp of lambda_high are refused: the
    detector's midpoints stop moving there.
    """
    return _closed_forms([survival], [], [pair], config)[0][1][0]


def _closed_forms(survivals, levels, pairs=(), config: BisectionConfig | None = None):
    # [(values at levels, resolved rate of each band)], one per survival.
    # The levels and then each band's edge slices go to a survival in
    # consecutive calls of at most _SLICE_CELLS + 1 levels; no element's
    # bits depend on its call (see `tails`). A band cut under an ulp
    # raises once every survival read the levels, so that their failures
    # come first, and before any edge is read.
    coarse = [p for p in pairs if p.width and math.ldexp(p.width, -config.max_iter) < math.ulp(p.lambda_high)]
    bands = () if coarse else pairs
    results = []
    for survival in survivals:
        values, totals = [], [None] * len(bands)
        for call in _packed(_parts(levels, bands, config)):
            tail = survival(np.concatenate([part for _, part in call]))
            for band, part in call:
                here, tail = tail[: part.size], tail[part.size :]
                if band is None:
                    values += here.tolist()
                    continue
                # odd cells from the top, cell k spanning edges k and k + 1;
                # the gaps are added in that order onto S(lambda_high), and
                # a negative gap is roundoff and adds nothing
                gaps = here[-2::-2] - here[:0:-2]
                start = here[-1] if totals[band] is None else totals[band]
                totals[band] = np.add.accumulate(np.concatenate(([start], gaps[gaps > 0.0])))[-1]
        results.append((values, [min(1.0, float(total)) for total in totals]))
    if coarse:
        band = f"{coarse[0].lambda_low!r}..{coarse[0].lambda_high!r}"
        raise ValueError(f"max_iter={config.max_iter} splits band {band} into cells under an ulp")
    return results


def _parts(levels, pairs, config: BisectionConfig | None):
    # (band, levels): the levels (band None) in pieces of at most
    # _SLICE_CELLS + 1, then each band's cell edges lambda_low + k * step
    # in slices of at most _SLICE_CELLS + 1, the top slice first and its
    # top edge lambda_high itself; a band of zero width is one cell
    for start in range(0, len(levels), _SLICE_CELLS + 1):
        yield None, np.array(levels[start : start + _SLICE_CELLS + 1], dtype=float)
    for band, pair in enumerate(pairs):
        cells = 2**config.max_iter if pair.width else 1
        step = pair.width / cells
        for top in range(cells, 0, -_SLICE_CELLS):
            edges = pair.lambda_low + np.arange(max(top - _SLICE_CELLS, 0), top + 1) * step
            if top == cells:
                edges[-1] = pair.lambda_high
            yield band, edges


def _packed(parts):
    # consecutive parts in calls of at most _SLICE_CELLS + 1 levels
    call, room = [], _SLICE_CELLS + 1
    for band, part in parts:
        if part.size > room:
            yield call
            call, room = [], _SLICE_CELLS + 1
        call.append((band, part))
        room -= part.size
    if call:
        yield call
