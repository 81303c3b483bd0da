"""Math core tests.

The frozen constants below were produced with an arbitrary-precision
evaluator (mpmath, 50 digits, rounded to 17 significant digits) and
are trusted over any single float-precision route. Grid comparisons
against the scipy-based oracles in oracles.py are the second route.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from crn_sense import specfun
from crn_sense.specfun import (
    ConvergenceError,
    gaussian_q,
    gaussian_q_inv,
    marcum_q,
    reg_upper_gamma,
)
from scipy import special

import oracles
from oracles import (
    finite_sum_from_peak_oracle,
    finite_sum_oracle,
    marcum_quad_oracle,
    marcum_series_oracle,
    noncentral_chi2_sf_oracle,
    q_oracle,
    reg_upper_gamma_oracle,
)

# Cross-check grids for the quadrature oracle.
MARCUM_ORDERS = (1, 2, 5)
MARCUM_A = (0.0, 0.28, 1.0, 3.0)
MARCUM_B = (0.0, 1.0, 3.5, 6.0)

# Gamma tails from x = 700, where exp(-x) nears underflow and
# reg_upper_gamma sums the finite sum outward from its largest term, as
# marcum_q does for its first tail: orders across the whole accepted
# range, fixed x from 700 to 10^8, and x placed at fractions of the
# order, where the peak term's exponent cancels most.
PEAK_ORDERS = (1, 2, 5, 10, 50, 100, 500, 1000, 5000, 10**4, 10**5, 5 * 10**5, 10**6)
PEAK_X = (700.0, 700.5, 710.0, 800.0, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8)
PEAK_X_FRACTIONS = (0.5, 0.9, 0.99, 0.999, 1.0, 1.01, 1.1, 2.0)

# Orders the package refuses: not an integer, or outside 1..10^6.
BAD_ORDERS = (2.5, 0, 10**6 + 1, math.inf, math.nan)

# Series grid: SNR a^2/2 from -30 to +28 dB (the series start is
# subnormal, and refused, past 708.4 or 28.50 dB), and thresholds x = b^2/2 placed at fractions of
# the statistic's mean u + a^2/2, from deep in the lower tail to deep in
# the upper one. The upper fractions at order 500 or at high SNR put x
# at 700 or more, where marcum_q's running finite sum starts from the
# peak sum and adds terms taken from log space.
SERIES_ORDERS = (1, 2, 5, 10, 50, 500)
SERIES_SNR_DB = tuple(range(-30, 29, 4)) + (28,)
SERIES_X_FRACTIONS = (0.05, 0.3, 0.7, 0.95, 1.0, 1.05, 1.4, 2.0, 3.0)

# x where the raw finite sum of order 72 rounds to 1.0000000000000002,
# and (u, SNR dB, x) points whose Poisson series reaches orders where
# the running finite sum rounds above 1, so the top clip binds.
ABOVE_ONE_X = 12.525317068122026
ABOVE_ONE_POINTS = ((1, 15, ABOVE_ONE_X), (20, 10, ABOVE_ONE_X), (5, 20, 30.0), (60, 15, 45.0), (20, 20, 45.0))


def full_finite_sum(n, x):
    """(last term, partial sum) of exp(-x) * sum_{k<n} x^k / k!, all n - 1 steps."""
    term = math.exp(-x)
    partial = term
    for k in range(1, n):
        term *= x / k
        partial += term
    return term, partial


def series_grid(orders):
    for u in orders:
        for snr_db in SERIES_SNR_DB:
            h = 10.0 ** (snr_db / 10.0)
            for fraction in SERIES_X_FRACTIONS:
                yield u, math.sqrt(2.0 * h), math.sqrt(2.0 * fraction * (u + h))


class TestGaussianQ:
    def test_frozen_values(self):
        assert gaussian_q(0.0) == 0.5
        assert gaussian_q(2.0) == pytest.approx(0.022750131948179207, abs=1e-15)
        assert gaussian_q(1.6449) == pytest.approx(0.049995217468346303, abs=1e-15)
        assert gaussian_q(-2.0) == pytest.approx(0.97724986805182079, abs=1e-15)

    def test_reflection_identity(self):
        for x in np.linspace(-8.0, 8.0, 161):
            assert abs(gaussian_q(x) + gaussian_q(-x) - 1.0) < 1e-12

    def test_matches_oracle_on_grid(self):
        for x in np.linspace(-6.0, 6.0, 121):
            assert gaussian_q(x) == pytest.approx(q_oracle(x), abs=1e-14)

    def test_monotone_decreasing(self):
        xs = np.linspace(-10.0, 10.0, 400)
        values = [gaussian_q(x) for x in xs]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            gaussian_q(math.nan)
        with pytest.raises(ValueError):
            gaussian_q(math.inf)


class TestGaussianQInv:
    def test_frozen_values(self):
        assert gaussian_q_inv(0.5) == 0.0
        assert gaussian_q_inv(0.0228) == pytest.approx(1.9990772149717699, abs=1e-12)
        assert gaussian_q_inv(1e-9) == pytest.approx(5.9978070150076869, abs=1e-11)

    def test_round_trip(self):
        for p in (1e-12, 1e-6, 0.01, 0.1, 0.3, 0.5, 0.7, 0.95, 0.999, 1 - 1e-9):
            x = gaussian_q_inv(p)
            assert gaussian_q(x) == pytest.approx(p, rel=1e-10, abs=1e-15)

    def test_monotone_decreasing_in_p(self):
        ps = np.linspace(0.001, 0.999, 199)
        xs = [gaussian_q_inv(p) for p in ps]
        assert all(a > b for a, b in zip(xs, xs[1:]))

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.1, 1.1, math.nan):
            with pytest.raises(ValueError):
                gaussian_q_inv(bad)

    def test_matches_scipy_quantile(self):
        ps = [*np.logspace(-300, -1, 300), *np.linspace(0.001, 0.999, 999), 1 - 1e-9]
        for p in ps:
            expected = -float(special.ndtri(p))
            assert abs(gaussian_q_inv(p) - expected) <= 1e-14 * max(1.0, abs(expected)), p


class TestRegUpperGamma:
    def test_frozen_values(self):
        assert reg_upper_gamma(5, 0.0) == 1.0
        assert reg_upper_gamma(1, 2.0) == pytest.approx(0.13533528323661269, abs=1e-15)
        assert reg_upper_gamma(5, 6.1875) == pytest.approx(0.26074268507152365, abs=1e-14)
        assert reg_upper_gamma(5, 9.0) == pytest.approx(0.054963641495104904, abs=1e-14)
        assert reg_upper_gamma(5, 4.5) == pytest.approx(0.53210357637471548, abs=1e-14)

    def test_integer_orders_match_finite_sum(self):
        # 1e-8 would be acceptable here; holds much tighter
        for u in range(1, 11):
            for x in (0.0, 0.3, 1.0, 2.5, 6.0, 6.1875, 9.0, 17.0, 40.0):
                assert reg_upper_gamma(u, x) == pytest.approx(
                    finite_sum_oracle(u, x), abs=1e-13
                ), (u, x)

    def test_large_integer_orders_either_side_of_x_700(self):
        # below x = 700 the sum is built forward from exp(-x); from
        # there it is summed outward from its largest term
        assert reg_upper_gamma(500, 500.0) == pytest.approx(
            0.49405285382923964, rel=1e-12
        )
        assert reg_upper_gamma(100, 120.0) == pytest.approx(
            0.027863739890520652, rel=1e-12
        )
        assert reg_upper_gamma(400, 800.0) == pytest.approx(
            reg_upper_gamma_oracle(400, 800.0), rel=1e-10
        )

    def test_peak_summed_tails_match_scipy(self):
        points = [
            (u, x)
            for u in PEAK_ORDERS
            for x in PEAK_X + tuple(700.0 + fraction * u for fraction in PEAK_X_FRACTIONS)
        ]
        assert len(points) == 234
        for u, x in points:
            assert reg_upper_gamma(u, x) == pytest.approx(
                reg_upper_gamma_oracle(u, x), rel=1e-9
            ), (u, x)

    @pytest.mark.parametrize("x", (1.0, 600.0, 699.5))
    def test_finite_sum_stopping_at_a_zero_term_keeps_every_bit(self, x):
        # the terms underflow to 0.0 long before k = 10^6; every later
        # one is 0.0 too and adds nothing, so stopping there is exact
        term, partial = full_finite_sum(10**6, x)
        assert term == 0.0
        got_term, got_partial = specfun._finite_sum(10**6, np.array([x]))
        assert (got_term[0], got_partial[0]) == (term, partial)
        assert reg_upper_gamma(10**6, x) == min(1.0, partial)

    def test_top_clip_binds_where_the_finite_sum_rounds_above_one(self):
        assert specfun._finite_sum(72, np.array([ABOVE_ONE_X]))[1][0] == 1.0000000000000002
        assert reg_upper_gamma(72, ABOVE_ONE_X) == 1.0

    def test_integral_float_order_is_accepted(self):
        assert reg_upper_gamma(5.0, 6.1875) == reg_upper_gamma(5, 6.1875)
        assert marcum_q(5.0, 1.0, 3.0) == marcum_q(5, 1.0, 3.0)

    @pytest.mark.parametrize("u", BAD_ORDERS)
    def test_rejects_orders_outside_the_integers_1_to_10_6(self, u):
        with pytest.raises(ValueError, match="reg_upper_gamma needs an integer order"):
            reg_upper_gamma(u, 1.0)
        with pytest.raises(ValueError, match="marcum_q needs an integer order"):
            marcum_q(u, 1.0, 1.0)

    def test_monotone_decreasing_in_x(self):
        for u in (1, 3, 5, 10):
            xs = np.linspace(0.0, 12 * u, 300)
            values = [reg_upper_gamma(u, x) for x in xs]
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            reg_upper_gamma(0, 1.0)
        with pytest.raises(ValueError):
            reg_upper_gamma(-2, 1.0)
        with pytest.raises(ValueError):
            reg_upper_gamma(5, -0.1)
        with pytest.raises(ValueError):
            reg_upper_gamma(math.inf, 1.0)


class TestMarcumQ:
    def test_zero_threshold_is_one(self):
        assert marcum_q(5, 0.3, 0.0) == 1.0
        assert marcum_q(1, 2.0, 0.0) == 1.0

    def test_zero_noncentrality_identity(self):
        # identity holds to 1e-10 across integer orders 1..10
        for u in range(1, 11):
            for b in (0.0, 0.7, 1.0, 3.0, 6.0):
                assert abs(marcum_q(u, 0.0, b) - reg_upper_gamma(u, b * b / 2.0)) < 1e-10
        assert marcum_q(5, 0.0, 3.0) == pytest.approx(reg_upper_gamma(5, 4.5), abs=1e-12)

    @pytest.mark.parametrize("u", (1, 5, 50, 500))
    def test_zero_noncentrality_is_the_gamma_tail_to_the_bit(self, u):
        # at a = 0 the series stops after its first term, the central
        # tail: b = 0, forward sums, and tails from their peak at
        # b^2/2 >= 700, as an array and as floats
        b = np.sqrt(2.0 * np.array([0.0, 1e-3, 0.5, 0.5 * u, u, 2.0 * u, 699.9, 700.0, 750.0, 1e3, 1e4]))
        x = 0.5 * b * b
        assert marcum_q(u, 0.0, b).tobytes() == reg_upper_gamma(u, x).tobytes()
        for v in b.tolist():
            assert marcum_q(u, 0.0, v).hex() == reg_upper_gamma(u, 0.5 * v * v).hex(), v

    def test_frozen_value_u1_a1_b1(self):
        # arbitrary-precision truth, confirmed by the quadrature
        # oracle below; beware the rounded 0.7334 that sometimes gets
        # passed around for this point, it is off in the fourth digit
        assert marcum_q(1, 1.0, 1.0) == pytest.approx(0.73287980379682022, abs=1e-10)

    def test_matches_quadrature_oracle_on_grid(self):
        for u in MARCUM_ORDERS:
            for a in MARCUM_A:
                for b in MARCUM_B:
                    assert marcum_q(u, a, b) == pytest.approx(
                        marcum_quad_oracle(u, a, b), abs=1e-8
                    ), (u, a, b)

    def test_monotone_in_a_and_b(self):
        for u in (1, 2, 5):
            values_a = [marcum_q(u, a, 3.0) for a in np.linspace(0.0, 4.0, 80)]
            assert all(x <= y + 1e-14 for x, y in zip(values_a, values_a[1:]))
            values_b = [marcum_q(u, 1.0, b) for b in np.linspace(0.0, 8.0, 80)]
            assert all(x >= y - 1e-14 for x, y in zip(values_b, values_b[1:]))

    def test_large_order_against_scipy(self):
        from oracles import noncentral_chi2_sf_oracle

        g = 10 ** (-1.4)
        value = marcum_q(500, math.sqrt(1000 * g), math.sqrt(1000.0))
        assert value == pytest.approx(
            noncentral_chi2_sf_oracle(1000.0, 1000, 1000 * g), rel=1e-9
        )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            marcum_q(0, 1.0, 1.0)
        with pytest.raises(ValueError):
            marcum_q(5, -0.1, 1.0)
        with pytest.raises(ValueError):
            marcum_q(5, 1.0, -0.1)

    @pytest.mark.parametrize(
        "u, a, b",
        [
            (5, 20.0, 20.0),  # running finite sum: x = 200
            (5, 20.0, 40.0),  # first tail summed from the peak: x = 800
        ],
    )
    def test_budget_exhaustion_raises_on_both_paths(self, u, a, b, monkeypatch):
        # the Poisson series itself runs out of terms, not a gamma tail
        monkeypatch.setattr(specfun, "_MAX_TERMS", 3)
        with pytest.raises(ConvergenceError, match="marcum_q series stalled"):
            marcum_q(u, a, b)

    def test_series_start_underflow_names_the_regime(self):
        a = math.sqrt(2.0 * 1000.0)  # SNR 30 dB
        with pytest.raises(ConvergenceError) as info:
            marcum_q(5, a, 40.0)
        message = str(info.value)
        assert "u=5" in message and f"a={a!r}" in message
        assert "SNR a^2/2 = 1000" in message and "(30.00 dB)" in message
        assert "28.50 dB" in message

    def test_subnormal_series_start_raises_from_28_50_db(self):
        # exp(-a^2/2) leaves the normal doubles at a^2/2 = 708.4; from
        # there to its underflow at 745 the series used to start from a
        # few bits and return values off by up to 1e-1, or stall
        assert math.exp(-708.0) >= 2.2250738585072014e-308 > math.exp(-710.0)
        for u in (1, 5, 50, 500):
            for h in range(708, 745, 2):
                mean = 2.0 * (u + h)
                for fraction in (0.5, 0.75, 1.0, 1.5, 2.0):
                    a, b = math.sqrt(2.0 * h), math.sqrt(fraction * mean)
                    if h == 708:
                        expected = noncentral_chi2_sf_oracle(b * b, 2 * u, a * a)
                        assert abs(marcum_q(u, a, b) - expected) <= 1e-10, (u, fraction)
                    else:
                        with pytest.raises(ConvergenceError, match=r"28\.50 dB"):
                            marcum_q(u, a, b)

    def test_equals_the_one_gamma_call_per_term_series(self):
        # below x = 700 the running finite sum repeats reg_upper_gamma's
        # operations in the same order, so equality is exact, not
        # approximate; from there only the first tail is reg_upper_gamma's
        # peak sum, and each later one adds a term taken from log space,
        # which moves the last bits, far inside the series' own tolerance
        points = list(series_grid(SERIES_ORDERS))
        levels = {}
        for u, a, b in points:
            levels.setdefault((u, a), []).append(b)
        past_700 = 0
        for (u, a), bs in levels.items():
            want = marcum_series_oracle(u, a, np.array(bs)).tolist()
            for b, expected in zip(bs, want):
                got = marcum_q(u, a, b)
                if b * b / 2.0 < 700.0:
                    assert got == expected, (u, a, b)
                else:
                    past_700 += 1
                    assert abs(got - expected) <= specfun._ABS_TOL, (u, a, b)
        assert (len(points), past_700) == (864, 81)

    def test_sums_each_level_from_its_peak_once(self, monkeypatch):
        # past x = 700 a level's first tail is summed from its peak, and
        # every later order adds one term to it: one peak sum per level,
        # not one per level and order, and all of a call's levels at once
        calls = []
        peak_sums = specfun._sums_from_peak

        def counted(n, x):
            calls.append((n, x.size))
            return peak_sums(n, x)

        monkeypatch.setattr(specfun, "_sums_from_peak", counted)
        b = np.sqrt(2.0 * np.linspace(690.0, 760.0, 29))
        marcum_q(5, math.sqrt(400.0), b)
        assert np.count_nonzero(b * b / 2.0 >= 700.0) == 25
        assert calls == [(5, 25)]

    @pytest.mark.parametrize("n", [1, 5, 1000, 10**6])
    def test_peak_sums_step_together_with_the_scalar_bits(self, n):
        # each level keeps its own peak, term order and stopping test
        rng = np.random.default_rng(n)
        x = np.concatenate([
            [700.0, np.nextafter(700.0, np.inf), 999.5, 1000.0, n - 1.0, n - 0.5, n, n + 0.5, 10.0**6],
            np.geomspace(700.0, 1e6, 40), rng.uniform(700.0, 2000.0, 20), rng.uniform(700.0, 1e6, 4),
        ])
        x = rng.permutation(x[x >= 700.0])
        got = specfun._sums_from_peak(n, x)
        want = [finite_sum_from_peak_oracle(n, v) for v in x.tolist()]
        assert got.tobytes() == np.array(want).tobytes()

    def test_tails_past_x_700_against_scipy(self):
        # levels about the statistic's mean and from x = 700 to 1000, u = 1
        # at h = 650 and 708 included, where the first terms of every tail
        # underflow and only the log-space terms carry it
        for u in (1, 5, 50, 350, 1000):
            for h in (0.0, 10.0, 316.0, 650.0, 708.0):
                mean, sd = u + h, math.sqrt(u + 2.0 * h)
                x = np.concatenate(
                    [np.linspace(max(0.0, mean - 8.0 * sd), mean + 8.0 * sd, 20), np.linspace(700.0, 1000.0, 20)]
                )
                b = np.sqrt(2.0 * x)
                expected = noncentral_chi2_sf_oracle(b * b, 2 * u, 2.0 * h)
                assert np.abs(marcum_q(u, math.sqrt(2.0 * h), b) - expected).max() <= 5e-12, (u, h)

    @pytest.mark.parametrize("u, snr_db, x", ABOVE_ONE_POINTS)
    def test_equals_the_series_where_the_running_sum_rounds_above_one(self, u, snr_db, x, monkeypatch):
        # the series oracle takes each tail from reg_upper_gamma; record
        # whether its raw finite sum rounded above 1 and was clipped
        above_one = []

        def recording_gamma(order, y):
            above_one.extend(specfun._finite_sum(int(order), np.atleast_1d(y))[1] > 1.0)
            return reg_upper_gamma(order, y)

        monkeypatch.setattr(oracles, "reg_upper_gamma", recording_gamma)
        a, b = math.sqrt(2.0 * 10.0 ** (snr_db / 10.0)), math.sqrt(2.0 * x)
        assert marcum_q(u, a, b) == marcum_series_oracle(u, a, b)
        assert any(above_one)

    def test_series_grid_against_scipy(self):
        for u, a, b in series_grid(SERIES_ORDERS):
            expected = noncentral_chi2_sf_oracle(b * b, 2 * u, a * a)
            assert abs(marcum_q(u, a, b) - expected) <= 1e-8, (u, a, b)


def levels_around(u, h):
    """b values for one (u, SNR): zero, one whose b^2/2 underflows to 0, the
    series grid's thresholds, and thresholds either side of b^2/2 = 700."""
    xs = [fraction * (u + h) for fraction in SERIES_X_FRACTIONS] + [699.9, 700.0, 1000.0]
    return np.array([0.0, 1e-170] + [math.sqrt(2.0 * x) for x in xs])


class TestArrayArguments:
    """An ndarray argument gives the float calls' bits, element by element."""

    @pytest.mark.parametrize("u", (1, 5, 50, 500))
    def test_array_calls_equal_the_float_calls(self, u):
        for snr_db in (*range(-14, 29, 3), 28):
            h = 10.0 ** (snr_db / 10.0)
            b = levels_around(u, h)
            for a in (0.0, math.sqrt(2.0 * h)):
                got = marcum_q(u, a, b)
                assert isinstance(got, np.ndarray) and got.shape == b.shape
                assert got.tolist() == [marcum_q(u, a, v) for v in b.tolist()], (u, snr_db, a)
            x = 0.5 * b * b
            assert reg_upper_gamma(u, x).tolist() == [reg_upper_gamma(u, v) for v in x.tolist()], (u, snr_db)

    @pytest.mark.parametrize("u", (1, 5, 50))
    def test_wide_calls_equal_calls_of_eight(self, u):
        # 4097 levels step every chunk one order at a time (the row loop
        # of specfun._accumulate), calls of 8 levels take numpy's
        # accumulate; two levels are summed from their peak. A chunk of
        # 4097 levels has at most _CHUNK_DOUBLES // 4097 rows, and every
        # chunk has two rows or more. The Marcum series' first chunk
        # widens with h = a^2/2, from 6 orders at h = 0 to 453 at 25 dB
        # (h = 316) in the calls of 8, and is capped at 2 in the wide
        # ones, so their chunks end at different orders.
        assert 4097 >= specfun._LOOP_RATIO * (specfun._CHUNK_DOUBLES // 4097)
        assert 8 < specfun._LOOP_RATIO * 2
        x = np.concatenate([np.linspace(0.0, 699.0, 4095), [700.0, 1000.0]])
        b = np.sqrt(2.0 * x)
        for a in (0.0, *(math.sqrt(2.0 * 10.0 ** (snr_db / 10.0)) for snr_db in (-14, -5, 0, 5, 10, 15, 20, 25))):
            narrow = [marcum_q(u, a, b[i : i + 8]) for i in range(0, b.size, 8)]
            assert marcum_q(u, a, b).tolist() == np.concatenate(narrow).tolist(), a
        narrow = [reg_upper_gamma(u, x[i : i + 8]) for i in range(0, x.size, 8)]
        assert reg_upper_gamma(u, x).tolist() == np.concatenate(narrow).tolist()

    def test_forward_sums_equal_the_scalar_loop(self):
        # below x = 700 each element is the loop's finite sum, clipped
        x = np.concatenate([np.linspace(0.0, 60.0, 121), np.linspace(60.0, 699.9, 33)])
        for u in (1, 2, 5, 13, 50, 500):
            assert reg_upper_gamma(u, x).tolist() == [min(1.0, full_finite_sum(u, v)[1]) for v in x.tolist()], u

    def test_floats_give_floats_and_arrays_keep_their_shape(self):
        assert type(marcum_q(5, 1.0, 3.0)) is float
        assert type(reg_upper_gamma(5, 4.5)) is float
        assert type(gaussian_q(1.0)) is float
        b = np.array([[1.0, 2.0, 3.0], [4.0, 0.0, 50.0]])
        assert marcum_q(5, 1.0, b).shape == reg_upper_gamma(5, b).shape == gaussian_q(b).shape == (2, 3)
        assert gaussian_q(b).ravel().tolist() == [gaussian_q(v) for v in b.ravel().tolist()]
        assert marcum_q(5, 1.0, np.array([])).shape == (0,)

    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf, -0.5))
    def test_arrays_refuse_what_floats_refuse(self, bad):
        values = np.array([1.0, bad, 2.0, -1.0])
        shown = repr(bad).replace(".", r"\.")
        with pytest.raises(ValueError, match=f"reg_upper_gamma needs x >= 0, got {shown}$"):
            reg_upper_gamma(5, values)
        with pytest.raises(ValueError, match=f"marcum_q needs b >= 0, got {shown}$"):
            marcum_q(5, 1.0, values)
        if not math.isfinite(bad):
            with pytest.raises(ValueError, match=f"gaussian_q needs a finite argument, got {shown}$"):
                gaussian_q(values)

    def test_budget_exhaustion_names_the_first_stalled_level(self, monkeypatch):
        monkeypatch.setattr(specfun, "_MAX_TERMS", 3)
        with pytest.raises(ConvergenceError, match=r"marcum_q series stalled at u=5, a=20\.0, b=20\.0$"):
            marcum_q(5, 20.0, np.array([0.0, 20.0, 40.0]))
