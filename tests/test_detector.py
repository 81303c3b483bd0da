"""Decision rule tests, including the published threshold resolutions.

The verdicts are pinned on count_band, the one-pair call of
count_bands, the one place the rule is coded, with one-element arrays. The sixteen golden lambda_opt values
below are the full-precision dyadic numbers whose 2-decimal prints
appear in the published comparison tables; each was derived by
hand-executing the four-step halving rule and is reproduced exactly,
not approximately.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from crn_sense.detector import (
    BisectionConfig,
    BisectionResult,
    ThresholdPair,
    _midpoints,
    bisection_optimum_threshold,
)
from crn_sense.montecarlo import count_band

# (band, sensed energy) -> exact resolved threshold, default depth 4
GOLDEN_BAND_12_18 = [
    (12.5, 12.375),
    (14.0, 13.875),
    (15.0, 17.625),
    (15.5, 15.375),
    (16.0, 16.125),
    (16.5, 17.625),
    (17.0, 16.875),
    (17.5, 17.625),
]
GOLDEN_ENERGY_14_5 = [
    ((8.0, 20.0), 14.75),
    ((7.0, 22.0), 21.0625),
    ((2.0, 18.0), 15.0),
    ((11.0, 26.0), 13.8125),
    ((12.0, 34.0), 13.375),
    ((5.0, 21.0), 14.0),
    ((2.0, 19.0), 13.6875),
    ((10.0, 21.0), 14.8125),
]


def verdict(energy, pair, bisection=None):
    """count_band's verdict on one energy: 'occupied', 'idle' or 'fuzzy',
    or, given a bisection, the resolved 'occupied' or 'idle'."""
    counts = count_band(np.array([energy]), pair, bisection)
    if bisection is not None:
        return "occupied" if counts.resolved_occupied else "idle"
    names = {(1, 0, 0): "occupied", (0, 1, 0): "idle", (0, 0, 1): "fuzzy"}
    return names[counts.above, counts.below, counts.inside]


class TestSingleThreshold:
    def test_boundary_is_idle(self):
        # a single threshold is the degenerate pair; Occupied is strictly above it
        assert count_band(np.array([1.0]), ThresholdPair(1.0, 1.0)).above == 0
        assert count_band(np.array([1.0000001]), ThresholdPair(1.0, 1.0)).above == 1
        assert count_band(np.array([0.0]), ThresholdPair(0.0, 0.0)).above == 0


class TestThresholdPair:
    def test_validation(self):
        with pytest.raises(ValueError):
            ThresholdPair(18.0, 12.0)
        with pytest.raises(ValueError):
            ThresholdPair(-1.0, 12.0)
        with pytest.raises(ValueError):
            ThresholdPair(0.0, math.inf)

    def test_degenerate_pair_allowed(self):
        pair = ThresholdPair(5.0, 5.0)
        assert pair.width == 0.0

    def test_width(self):
        assert ThresholdPair(12.0, 18.0).width == 6.0


class TestDoubleThreshold:
    def test_band_is_inclusive(self):
        pair = ThresholdPair(12.0, 18.0)
        assert verdict(11.999, pair) == "idle"
        assert verdict(12.0, pair) == "fuzzy"
        assert verdict(15.0, pair) == "fuzzy"
        assert verdict(18.0, pair) == "fuzzy"
        assert verdict(18.001, pair) == "occupied"

    def test_degenerate_band(self):
        pair = ThresholdPair(5.0, 5.0)
        assert verdict(4.9, pair) == "idle"
        assert verdict(5.0, pair) == "fuzzy"
        assert verdict(5.1, pair) == "occupied"


class TestBisectionConfig:
    def test_defaults(self):
        config = BisectionConfig()
        assert config.max_iter == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            BisectionConfig(max_iter=0)
        with pytest.raises(ValueError, match=r"max_iter must lie in \[1, 2099\], got 2100"):
            BisectionConfig(max_iter=2100)
        with pytest.raises(ValueError):
            BisectionConfig(max_iter=2**64)

    def test_deepest_depth_is_the_last_that_moves(self):
        # the band 0..DBL_MAX halves down to the subnormal spacing 2^-1074
        # and settles there at step 2099; depths past that add no midpoint
        deepest = BisectionConfig(max_iter=2099)
        trace = bisection_optimum_threshold(ThresholdPair(0.0, sys.float_info.max), 5e-324, deepest).trace
        assert trace[-1] != trace[-2]
        # 2200 steps, past the bound BisectionConfig enforces
        rest = [float(mid) for mid in _midpoints(0.0, sys.float_info.max, 5e-324, 2200)]
        assert rest[:2099] == list(trace)
        assert set(rest[2098:]) == {trace[-1]}
        # demo 02 resolves 12..18 at depth 60
        BisectionConfig(max_iter=60)


class TestBisection:
    def test_golden_band_12_18(self):
        pair = ThresholdPair(12.0, 18.0)
        for energy, expected in GOLDEN_BAND_12_18:
            result = bisection_optimum_threshold(pair, energy)
            assert result.lambda_opt == expected, energy
            assert len(result.trace) == 4

    def test_golden_energy_14_5(self):
        for (low, high), expected in GOLDEN_ENERGY_14_5:
            result = bisection_optimum_threshold(ThresholdPair(low, high), 14.5)
            assert result.lambda_opt == expected, (low, high)

    def test_trace_band_12_18_energy_12_5(self):
        result = bisection_optimum_threshold(ThresholdPair(12.0, 18.0), 12.5)
        assert result.trace == (15.0, 13.5, 12.75, 12.375)

    def test_trace_band_7_22_energy_14_5(self):
        # the first midpoint ties the energy exactly; the tie keeps the
        # upper half, which is what yields the published 21.0625
        result = bisection_optimum_threshold(ThresholdPair(7.0, 22.0), 14.5)
        assert result.trace == (14.5, 18.25, 20.125, 21.0625)

    def test_energy_equal_to_band_edges(self):
        pair = ThresholdPair(12.0, 18.0)
        low_edge = bisection_optimum_threshold(pair, 12.0)
        assert low_edge.trace == (15.0, 16.5, 17.25, 17.625)
        high_edge = bisection_optimum_threshold(pair, 18.0)
        assert high_edge.trace == (15.0, 16.5, 17.25, 17.625)

    def test_energy_outside_band_rejected(self):
        pair = ThresholdPair(12.0, 18.0)
        with pytest.raises(ValueError):
            bisection_optimum_threshold(pair, 11.9)
        with pytest.raises(ValueError):
            bisection_optimum_threshold(pair, 18.1)

    def test_deep_convergence_to_energy(self):
        rng = np.random.default_rng(101)
        config = BisectionConfig(max_iter=60)
        for _ in range(300):
            low = float(rng.uniform(0.0, 20.0))
            high = low + float(rng.uniform(0.5, 30.0))
            energy = float(rng.uniform(low, high))
            result = bisection_optimum_threshold(ThresholdPair(low, high), energy, config)
            assert abs(result.lambda_opt - energy) < 1e-9

    def test_result_always_inside_band(self):
        rng = np.random.default_rng(103)
        for _ in range(300):
            low = float(rng.uniform(0.0, 20.0))
            high = low + float(rng.uniform(0.0, 30.0))
            energy = float(rng.uniform(low, high)) if high > low else low
            result = bisection_optimum_threshold(ThresholdPair(low, high), energy)
            assert low <= result.lambda_opt <= high

    def test_result_type(self):
        result = bisection_optimum_threshold(ThresholdPair(0.0, 1.0), 0.5)
        assert isinstance(result, BisectionResult)
        assert result.lambda_opt == result.trace[-1]
        # Python floats, not numpy scalars, whose repr differs
        assert type(result.lambda_opt) is float
        assert all(type(mid) is float for mid in result.trace)

    def test_huge_band_midpoints_are_correctly_rounded(self):
        # 1e308 + 1.5e308 overflows, and every midpoint used to be inf
        result = bisection_optimum_threshold(ThresholdPair(1e308, 1.5e308), 1.2e308)
        assert result.trace == (1.25e308, 1.125e308, 1.1875e308, 1.21875e308)
        # halving and order commute with scaling by 2^1023, so the trace
        # on (2^1023, 1.5 x 2^1023) is the trace on (1, 1.5), scaled
        rng = np.random.default_rng(113)
        energies = [1.0, 1.5, 1.25, *rng.uniform(1.0, 1.5, 200)]
        unit, huge = ThresholdPair(1.0, 1.5), ThresholdPair(2.0**1023, 1.5 * 2.0**1023)
        for depth in (1, 4, 12, 60):
            config = BisectionConfig(max_iter=depth)
            for energy in energies:
                want = bisection_optimum_threshold(unit, float(energy), config).trace
                got = bisection_optimum_threshold(huge, math.ldexp(energy, 1023), config).trace
                assert got == tuple(math.ldexp(mid, 1023) for mid in want), (depth, energy)

    def test_every_finite_sum_keeps_its_midpoint(self):
        # on 0..DBL_MAX, where low + high is finite the midpoint keeps its
        # bits; where it overflows (low has moved past DBL_MAX / 2) the
        # midpoint is the exact one, rounded once
        rng = np.random.default_rng(127)
        pair = ThresholdPair(0.0, sys.float_info.max)
        overflowed = 0
        for energy in [0.0, 5e-324, 1.0, sys.float_info.max, *(10.0 ** rng.uniform(-320, 308, 50))]:
            low, high = pair.lambda_low, pair.lambda_high
            for mid in bisection_optimum_threshold(pair, float(energy), BisectionConfig(max_iter=300)).trace:
                if math.isfinite(low + high):
                    assert mid == (low + high) / 2.0, energy
                else:
                    overflowed += 1
                    assert mid == float((Fraction(low) + Fraction(high)) / 2), energy
                low, high = (low, mid) if low < energy < mid else (mid, high)
        assert overflowed > 0

    def test_trace_scales_exactly_by_a_power_of_two(self):
        # halving and order both commute with scaling by 2^-990, so the
        # trace on (0, 2^-990) is the trace on (0, 1), scaled; the sign of
        # (low - e) * (mid - e) underflowed there and turned the wrong way
        rng = np.random.default_rng(109)
        energies = [0.0, 1.0, 0.5, 0.25, 0.75, *rng.uniform(0.0, 1.0, 995)]
        unit, tiny = ThresholdPair(0.0, 1.0), ThresholdPair(0.0, 2.0**-990)
        for depth in range(1, 13):
            config = BisectionConfig(max_iter=depth)
            for energy in energies:
                want = bisection_optimum_threshold(unit, float(energy), config).trace
                got = bisection_optimum_threshold(tiny, math.ldexp(energy, -990), config).trace
                assert got == tuple(math.ldexp(mid, -990) for mid in want), (depth, energy)


class TestResolveFuzzy:
    def test_out_of_band_passthrough(self):
        pair = ThresholdPair(12.0, 18.0)
        assert verdict(11.0, pair, BisectionConfig()) == "idle"
        assert verdict(19.0, pair, BisectionConfig()) == "occupied"

    def test_in_band_resolution(self):
        pair = ThresholdPair(12.0, 18.0)
        # energy 12.5 resolves the threshold to 12.375, just below it
        assert verdict(12.5, pair, BisectionConfig()) == "occupied"
        # energy 14.5 in band (7, 22) resolves to 21.0625, far above it
        assert verdict(14.5, ThresholdPair(7.0, 22.0), BisectionConfig()) == "idle"
        # an energy equal to low, or to the first midpoint 15, moves low
        # up and resolves to 17.625, above it
        assert verdict(12.0, pair, BisectionConfig()) == "idle"
        assert verdict(15.0, pair, BisectionConfig()) == "idle"

    def test_matches_composition(self):
        rng = np.random.default_rng(107)
        pair = ThresholdPair(3.0, 23.0)
        for _ in range(200):
            energy = float(rng.uniform(3.0, 23.0))
            resolved = bisection_optimum_threshold(pair, energy).lambda_opt
            assert verdict(energy, pair, BisectionConfig()) == ("occupied" if energy > resolved else "idle")
