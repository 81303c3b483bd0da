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

from oracles import (
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

# Gamma tails from x = 700, where exp(-x) nears underflow and the
# finite sum is summed outward from its largest term: orders across the
# whole accepted range, fixed x from 700 to 10^8, and x placed at
# fractions of the order, where the peak term's exponent cancels most.
PEAK_ORDERS = (1, 2, 5, 10, 50, 100, 500, 1000, 5000, 10**4, 10**5, 5 * 10**5, 10**6)
PEAK_X = (700.0, 700.5, 710.0, 800.0, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8)
PEAK_X_FRACTIONS = (0.5, 0.9, 0.99, 0.999, 1.0, 1.01, 1.1, 2.0)

# Orders the package refuses: not an integer, or outside 1..10^6.
BAD_ORDERS = (2.5, 0, 10**6 + 1, math.inf, math.nan)

# Series grid: SNR a^2/2 from -30 to +28 dB (the series start underflows
# past about 28.7 dB), and thresholds x = b^2/2 placed at fractions of
# the statistic's mean u + a^2/2, from deep in the lower tail to deep in
# the upper one. The upper fractions at order 500 or at high SNR put x
# at 700 or more, where marcum_q leaves the running finite sum.
SERIES_ORDERS = (1, 2, 5, 10, 50, 500)
SERIES_SNR_DB = tuple(range(-30, 29, 4)) + (28,)
SERIES_X_FRACTIONS = (0.05, 0.3, 0.7, 0.95, 1.0, 1.05, 1.4, 2.0, 3.0)


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
            (5, 20.0, 40.0),  # tails summed from the peak: x = 800
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
        assert "28.7 dB" in message

    def test_equals_the_one_gamma_call_per_term_series(self):
        # below x = 700 the running finite sum repeats reg_upper_gamma's
        # operations in the same order, and from there each tail is the
        # same peak sum, so equality is exact, not approximate
        points = list(series_grid(SERIES_ORDERS))
        assert any(b * b / 2.0 >= 700.0 for _, _, b in points)
        for u, a, b in points:
            assert marcum_q(u, a, b) == marcum_series_oracle(u, a, b), (u, a, b)

    def test_series_grid_against_scipy(self):
        for u, a, b in series_grid(SERIES_ORDERS):
            expected = noncentral_chi2_sf_oracle(b * b, 2 * u, a * a)
            assert abs(marcum_q(u, a, b) - expected) <= 1e-8, (u, a, b)

