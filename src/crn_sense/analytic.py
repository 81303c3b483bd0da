"""Closed-form detection probabilities.

Two formula families coexist and are kept apart on purpose. The
"gaussian" family applies the central limit theorem to the averaged
statistic and is keyed on the window length M; the "gamma-marcum"
family treats the unaveraged statistic as (noncentral) chi-square
with 2u degrees of freedom and is keyed on the order u. They are not
numerically interchangeable, so every entry point names its family
and the caller has to pick.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from .detector import BisectionConfig, ThresholdPair
from .specfun import gaussian_q, gaussian_q_inv, marcum_q, reg_upper_gamma

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
    "roc_analytic",
    "resolved_occupied_probability",
    "bisection_resolved_rates",
]

_MONOTONE_SLACK = 1e-12  # roundoff allowance when validating curve ordering


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


def pf_gaussian(threshold: float, noise_variance: float, num_samples: int) -> float:
    """False-alarm probability, CLT family.

    Q((threshold / noise_variance - 1) * sqrt(num_samples / 2)).
    """
    _check_gaussian_args(noise_variance, num_samples)
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold!r}")
    arg = (threshold / noise_variance - 1.0) * math.sqrt(num_samples / 2.0)
    return gaussian_q(arg)


def pd_gaussian(threshold: float, noise_variance: float, snr_linear: float, num_samples: int) -> float:
    """Detection probability, CLT family.

    Q((threshold / noise_variance - snr - 1) * sqrt(num_samples / (2 (2 snr + 1)))).
    """
    _check_gaussian_args(noise_variance, num_samples)
    _check_snr(snr_linear)
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold!r}")
    arg = (threshold / noise_variance - snr_linear - 1.0) * math.sqrt(
        num_samples / (2.0 * (2.0 * snr_linear + 1.0))
    )
    return gaussian_q(arg)


def pf_gamma(threshold: float, u: int) -> float:
    """False-alarm probability, chi-square family: upper tail at threshold/2."""
    if not (math.isfinite(threshold) and threshold >= 0.0):
        raise ValueError(f"threshold must be finite and >= 0, got {threshold!r}")
    return reg_upper_gamma(u, threshold / 2.0)


def pd_marcum(threshold: float, snr_linear: float, u: int) -> float:
    """Detection probability, noncentral chi-square family."""
    _check_snr(snr_linear)
    if not (math.isfinite(threshold) and threshold >= 0.0):
        raise ValueError(f"threshold must be finite and >= 0, got {threshold!r}")
    return marcum_q(u, math.sqrt(2.0 * snr_linear), math.sqrt(threshold))


def double_threshold_report(pair: ThresholdPair, snr_linear: float, u: int) -> DoubleThresholdReport:
    """All five closed-form rates for one threshold pair."""
    pd = pd_marcum(pair.lambda_high, snr_linear, u)
    return DoubleThresholdReport(
        pf=pf_gamma(pair.lambda_high, u),
        pd=pd,
        pm=1.0 - pd,
        pc=1.0 - pd_marcum(pair.lambda_low, snr_linear, u),
        pna=pf_gamma(pair.lambda_low, u),
    )


def threshold_for_target_pf(target_pf: float, noise_variance: float, num_samples: int) -> float:
    """Threshold whose CLT-family false-alarm rate equals target_pf."""
    _check_gaussian_args(noise_variance, num_samples)
    if not (0.0 < target_pf < 1.0):
        raise ValueError(f"target_pf must lie in (0, 1), got {target_pf!r}")
    return noise_variance * (1.0 + gaussian_q_inv(target_pf) * math.sqrt(2.0 / num_samples))


def tails(params, form: str) -> tuple[Callable[[float], float], Callable[[float], float]]:
    """(Pr[T > x | idle], Pr[T > x | busy]) of one formula family.

    params carries the sensing configuration (window length, SNR,
    noise variance, order); form picks the family. "gaussian" reads x
    as mean square per sample; "gamma-marcum" reads it as collected
    energy and scales it by the noise variance.
    """
    snr = params.snr_linear
    if form == "gaussian":
        def idle_tail(x: float) -> float:
            return pf_gaussian(x, params.noise_variance, params.num_samples)

        def busy_tail(x: float) -> float:
            return pd_gaussian(x, params.noise_variance, snr, params.num_samples)
    elif form == "gamma-marcum":
        def idle_tail(x: float) -> float:
            return pf_gamma(x / params.noise_variance, params.time_bandwidth)

        def busy_tail(x: float) -> float:
            return pd_marcum(x / params.noise_variance, snr, params.time_bandwidth)
    else:
        raise ValueError(f"form must be 'gaussian' or 'gamma-marcum', got {form!r}")
    return idle_tail, busy_tail


def roc_analytic(lambda_grid: Sequence[float], params, form: str = "gamma-marcum") -> RocCurve:
    """Closed-form operating curve over a threshold grid.

    params and form are as for tails. The grid may come in any order;
    points are emitted by decreasing threshold.
    """
    grid = sorted(float(x) for x in lambda_grid)
    if not grid:
        raise ValueError("lambda_grid must be non-empty")
    idle_tail, busy_tail = tails(params, form)
    points = [RocPoint(pf=idle_tail(lam), pd=busy_tail(lam), threshold=lam) for lam in reversed(grid)]
    return RocCurve(points=tuple(points))


def resolved_occupied_probability(
    pair: ThresholdPair,
    config: BisectionConfig,
    survival: Callable[[float], float],
) -> float:
    """Pr[final verdict is Occupied] for the bisection-resolved detector.

    survival(x) must be Pr[T > x] of the statistic, continuous in x.
    After max_iter halvings the resolved threshold is constant on each
    of the 2^max_iter equal sub-cells of the band, and within a cell
    the verdict is too, so the in-band contribution is a finite sum of
    survival differences over the cells whose verdict is Occupied.
    An energy in cell k ends in a bracket whose last halving kept the
    upper half exactly when k is odd, and only then does it exceed the
    last midpoint, so the Occupied cells are the odd-indexed ones.
    """
    total = survival(pair.lambda_high)
    if pair.width == 0.0:
        return total
    cells = 2 ** config.max_iter
    step = pair.width / cells
    tail_hi = survival(pair.lambda_high)
    for index in reversed(range(cells)):
        lo = pair.lambda_low + index * step
        tail_lo = survival(lo)
        if index % 2 == 1:
            total += max(0.0, tail_lo - tail_hi)
        tail_hi = tail_lo
    return min(1.0, total)


def bisection_resolved_rates(
    pair: ThresholdPair,
    snr_linear: float,
    u: int,
    config: BisectionConfig = BisectionConfig(),
) -> tuple[float, float]:
    """(pf, pd) of the bisection-resolved detector, chi-square family."""
    pf = resolved_occupied_probability(pair, config, lambda x: pf_gamma(x, u))
    pd = resolved_occupied_probability(pair, config, lambda x: pd_marcum(x, snr_linear, u))
    return pf, pd
