"""Energy detection thresholds and the band bisection.

Three detectors share the energy statistic T = (1/M) sum |y(n)|^2:

* single threshold: Occupied iff T strictly exceeds one level;
* double threshold: Idle below lambda_low, Occupied above lambda_high,
  and Fuzzy, where the detector abstains, on the inclusive band
  between them;
* bisection-resolved double threshold: a fuzzy energy is resolved by
  bisecting the band toward the energy itself and comparing against
  the final midpoint.

montecarlo.count_bands applies these rules to an array of statistics
and is the one place they are coded; this module holds the levels and
the bisection.

The bisection is deliberately a fixed-step procedure, not a root
finder from a library: its output after max_iter halvings is part of
the observable behaviour (tables of resolved thresholds depend on the
exact midpoint sequence), so the loop is spelled out here, once, for
one energy or an array of them. It brackets by order (low < energy <
mid), which no product's underflow or overflow can flip.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ThresholdPair",
    "BisectionConfig",
    "BisectionResult",
    "bisection_optimum_threshold",
]


# Past this depth no midpoint in [0, DBL_MAX] can move: the band's
# width halves once per step, from 2^1024 down to the 2^-1074 spacing
# of the subnormals, and one step more settles the last tie.
_MAX_DEPTH = 1024 + 1074 + 1
_HALF_MAX = sys.float_info.max / 2.0


@dataclass(frozen=True)
class ThresholdPair:
    """Lower and upper decision levels of a double-threshold detector.

    Equal levels are allowed: the inclusive fuzzy band then collapses
    to the single point lambda_low == lambda_high, and an energy above
    it is Occupied, as under a single threshold at that level.
    """

    lambda_low: float
    lambda_high: float

    def __post_init__(self) -> None:
        for name, value in (("lambda_low", self.lambda_low), ("lambda_high", self.lambda_high)):
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        if self.lambda_low > self.lambda_high:
            raise ValueError(
                f"lambda_low must not exceed lambda_high, "
                f"got {self.lambda_low!r} > {self.lambda_high!r}"
            )

    @property
    def width(self) -> float:
        return self.lambda_high - self.lambda_low


@dataclass(frozen=True)
class BisectionConfig:
    """Iteration budget for the band bisection: exactly max_iter midpoints."""

    max_iter: int = 4

    def __post_init__(self) -> None:
        if not 1 <= self.max_iter <= _MAX_DEPTH:
            raise ValueError(f"max_iter must lie in [1, {_MAX_DEPTH}], got {self.max_iter!r}")


@dataclass(frozen=True)
class BisectionResult:
    """Resolved threshold plus the midpoint trace that produced it."""

    lambda_opt: float
    trace: tuple[float, ...] = field(default_factory=tuple)


def _midpoints(low, high, energies, steps: int) -> Iterator:
    """The `steps` midpoints toward `energies` from the brackets [low, high].

    Each argument is one float or an ndarray of them; a bracket is a
    band's own or one a shallower walk reached. Only low < e < mid
    moves high down to mid; every other energy moves low up to it.
    """
    huge = np.any(np.greater(high, _HALF_MAX))  # else no low + high can overflow
    for _ in range(steps):
        mid = _midpoint(low, high, huge)
        lower = (low < energies) & (energies < mid)
        high = np.where(lower, mid, high)
        low = np.where(lower, low, mid)
        yield mid


def _cell_edges(low: float, high: float, depth: int) -> np.ndarray:
    """The 2^depth + 1 edges of the bisection's cells on [low, high], in order.

    Level by level each cell splits at the midpoint _midpoints takes
    there, so an energy strictly between two neighbouring edges walks
    down to the cell they bound.
    """
    huge = high > _HALF_MAX
    edges = np.array([low, high])
    for _ in range(depth):
        split = np.empty(2 * edges.size - 1)
        split[::2] = edges
        split[1::2] = _midpoint(edges[:-1], edges[1:], huge)
        edges = split
    return edges


def _midpoint(low, high, huge):
    """(low + high) / 2, through _halfway if some high exceeds _HALF_MAX."""
    return _halfway(low, high) if huge else (low + high) / 2.0


def _halfway(low, high):
    """(low + high) / 2, halving each end first where the sum overflows.

    Halving is exact at that magnitude, so the midpoint is still
    correctly rounded; every other midpoint keeps the sum's bits.
    """
    with np.errstate(over="ignore"):
        total = np.add(low, high)
    return np.where(np.isinf(total), low / 2.0 + high / 2.0, total / 2.0)


def bisection_optimum_threshold(
    pair: ThresholdPair,
    energy: float,
    config: BisectionConfig = BisectionConfig(),
) -> BisectionResult:
    """Resolve a threshold inside [lambda_low, lambda_high] for one energy.

    Starting from low = lambda_low, high = lambda_high, each step takes
    mid = (low + high) / 2 and keeps the half interval that brackets
    the energy: if low < energy < mid the upper end moves down to mid,
    otherwise the lower end moves up to mid, so an energy equal to low
    or to mid moves low. The resolved threshold is the last midpoint
    computed.
    """
    if not (math.isfinite(energy) and energy >= 0.0):
        raise ValueError(f"energy must be finite and >= 0, got {energy!r}")
    if not pair.lambda_low <= energy <= pair.lambda_high:
        raise ValueError(
            f"energy {energy!r} outside the fuzzy band "
            f"[{pair.lambda_low!r}, {pair.lambda_high!r}]"
        )
    mids = _midpoints(pair.lambda_low, pair.lambda_high, energy, config.max_iter)
    trace = tuple(float(mid) for mid in mids)
    return BisectionResult(lambda_opt=trace[-1], trace=trace)

