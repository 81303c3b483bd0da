"""Independent reference implementations used only by the tests.

Everything here is deliberately written against scipy or first
principles, never against the package's own code paths, so that a
test comparing the two is a genuine dual-route check. The one
exception is marcum_series_oracle, which repeats the textbook Marcum
series on the package's own reg_upper_gamma so that a test can demand
bit equality from the faster way marcum_q sums the same series wherever
b^2/2 < 700.
finite_sum_from_peak_oracle is the scalar loop that gamma tails past
x = 700 were once summed by, one level at a time, so that a test can
demand its bits from the levels stepped together.
carrier_bpsk_oracle likewise keeps an earlier order of operations, the
amplitude times the symbols and then the carrier, so that a test can
demand the same bits from the prescaled carrier row.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np
from scipy import integrate, special, stats

from crn_sense.specfun import ConvergenceError, _log_poisson, reg_upper_gamma


def q_oracle(x: float) -> float:
    """Standard normal upper tail via scipy's ndtr."""
    return float(special.ndtr(-x))


def reg_upper_gamma_oracle(u: float, x: float) -> float:
    """Regularized upper incomplete gamma via scipy."""
    return float(special.gammaincc(u, x))


def finite_sum_oracle(u: int, x: float) -> float:
    """Integer-order closed form e^-x sum_{k<u} x^k / k!, summed directly."""
    total = 0.0
    for k in range(u):
        total += x**k / math.factorial(k)
    return math.exp(-x) * total


def finite_sum_from_peak_oracle(n: int, x: float) -> float:
    """e^-x sum_{k<n} x^k / k! from its largest term, k = min(n - 1, floor(x)),
    taken in log space: the terms below it, then those above it, each
    side until a term is under half an ulp of the total."""
    peak = min(n - 1, math.floor(x))
    top = math.exp(_log_poisson(peak, x))
    if top == 0.0:  # every term is below double range
        return 0.0
    total = term = top
    for k in range(peak, 0, -1):  # term k-1 = term k * k / x
        term *= k / x
        total += term
        if term <= total * 2**-54:
            break
    term = top
    for k in range(peak + 1, n):  # term k = term k-1 * x / k
        term *= x / k
        total += term
        if term <= total * 2**-54:
            break
    return total


def marcum_quad_oracle(u: int, a: float, b: float) -> float:
    """Marcum Q_u(a, b) by adaptive quadrature of the defining integral.

    Integrand x (x/a)^(u-1) exp(-(x^2+a^2)/2) I_{u-1}(a x) on [b, inf),
    written with the exponentially scaled Bessel ive for stability. The
    a = 0 case degenerates to a central chi-square tail.
    """
    if b == 0.0:
        return 1.0
    if a == 0.0:
        return float(stats.chi2.sf(b * b, 2 * u))

    def integrand(x: float) -> float:
        return (
            x
            * (x / a) ** (u - 1)
            * math.exp(-((x - a) ** 2) / 2.0)
            * special.ive(u - 1, a * x)
        )

    value, _err = integrate.quad(integrand, b, np.inf, limit=400)
    return float(value)


def marcum_series_oracle(u: float, a: float, b):
    """Marcum Q_u(a, b) by the Poisson series with one gamma call per term.

    sum_{k>=0} Pois(k; a^2/2) * reg_upper_gamma(u + k, b^2/2), summed
    from k = 0 with a fresh reg_upper_gamma for every term, stopping
    once 1 - (Poisson mass) <= 1e-12 * (1 + sum), within 10000 terms.
    b is a float or an ndarray of them for the one (u, a): each term is
    then one array call over every b, and each element stops at its
    own first such k, so it gets the float call's bits. marcum_q has
    these bits below b^2/2 = 700; from there each of its tails after
    the first adds a term taken from log space to the one before, where
    every call here sums the tail afresh from its peak, so the two
    differ in their last bits.
    """
    levels = np.atleast_1d(np.asarray(b, dtype=float))
    x = 0.5 * levels * levels
    if a == 0.0:
        value = reg_upper_gamma(u, x)
    else:
        h = 0.5 * a * a
        pois = math.exp(-h)
        mass = pois
        total = pois * reg_upper_gamma(u, x)
        value = np.full(levels.shape, math.nan)
        for k in range(1, 10000 + 1):
            pois *= h / k
            mass += pois
            total = total + pois * reg_upper_gamma(u + k, x)
            done = np.isnan(value) & (1.0 - mass <= 1e-12 * (1.0 + total))
            value[done] = np.clip(total[done], 0.0, 1.0)
            if not np.isnan(value).any():
                break
        else:
            stalled = float(levels[np.isnan(value)][0])
            raise ConvergenceError(f"series stalled at u={u!r}, a={a!r}, b={stalled!r}")
    value = np.where(levels == 0.0, 1.0, value)
    return float(value[0]) if np.ndim(b) == 0 else value.reshape(np.shape(b))


def carrier_bpsk_oracle(snr_linear: float, uniforms: np.ndarray, num_samples: int) -> np.ndarray:
    """Carrier BPSK rows from one uniform per 64-sample bit, a row per row of uniforms.

    A bit is -1 below one half and +1 from it; the rows are
    sqrt(2 snr) * symbols * cos(2 pi n / 8), multiplied left to right.
    """
    bits = np.where(uniforms < 0.5, -1.0, 1.0)
    symbols = np.repeat(bits, 64, axis=1)[:, :num_samples]
    carrier = np.cos(2.0 * np.pi * np.arange(num_samples) / 8)
    return math.sqrt(2.0 * snr_linear) * symbols * carrier


def noncentral_chi2_sf_oracle(x, dof: int, noncentrality: float):
    """Noncentral chi-square survival via scipy.stats, of a float or elementwise of an ndarray."""
    if noncentrality == 0.0:
        value = stats.chi2.sf(x, dof)
    else:
        value = stats.ncx2.sf(x, dof, noncentrality)
    return float(value) if np.ndim(x) == 0 else value


def sample_energy_sf_oracle(lam, num_samples: int, noise_variance: float, snr_linear: float):
    """Exact tail of the averaged-energy statistic for the sample model,
    at a float level or elementwise at an ndarray of them.

    Under H0, num_samples * T / noise_variance is central chi-square
    with num_samples degrees of freedom; under H1 with a constant
    -magnitude BPSK signal the same quantity is noncentral with
    noncentrality num_samples * snr_linear.
    """
    scaled = num_samples * lam / noise_variance
    return noncentral_chi2_sf_oracle(scaled, num_samples, num_samples * snr_linear)


@functools.lru_cache(maxsize=2**16)
def _exact_midpoint(low: float, high: float) -> float:
    """(low + high) / 2 computed exactly and rounded once.

    Cached: walks toward nearby energies share their first brackets,
    and a walk whose midpoints stopped moving repeats its last one.
    """
    return float((Fraction(low) + Fraction(high)) / 2)


def order_rule_trace(low: float, high: float, energy: float, max_iter: int) -> list[float]:
    """Every midpoint of a plain loop of the order rule toward one energy."""
    trace = []
    for _ in range(max_iter):
        mid = _exact_midpoint(low, high)
        if low < energy < mid:
            high = mid
        else:
            low = mid
        trace.append(mid)
    return trace


def order_rule_threshold(low: float, high: float, energy: float, max_iter: int) -> float:
    """The resolved threshold by the order rule: its walk's last midpoint."""
    return order_rule_trace(low, high, energy, max_iter)[-1]


def verdict_oracle(energy: float, low: float, high: float, max_iter: int | None = None) -> str:
    """The double-threshold verdict on one energy: 'idle' below low,
    'occupied' above high, 'fuzzy' on the closed band between them.

    Given max_iter, a fuzzy energy takes the single-threshold verdict,
    strictly above or not, against its last order_rule_threshold
    midpoint.
    """
    if energy < low:
        return "idle"
    if energy > high:
        return "occupied"
    if max_iter is None:
        return "fuzzy"
    return "occupied" if energy > order_rule_threshold(low, high, energy, max_iter) else "idle"
