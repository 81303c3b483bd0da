"""Scalar special functions backing the detection probability formulas.

Self-contained on purpose: only the standard library is used, so the
probability stack has no numerical dependency to drift under it. The
accuracy target throughout is absolute error well below 1e-8 over the
argument ranges a detection problem produces.

The detector order u is the time-bandwidth product, an integer, so
every upper gamma tail, the Marcum series' included, is the finite sum
exp(-x) * sum_{k<u} x^k / k!: built forward from exp(-x) below
x = 700, and outward from its largest term beyond, where exp(-x) nears
underflow. The normal quantile is the standard library's.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from statistics import NormalDist

__all__ = [
    "ConvergenceError",
    "gaussian_q",
    "gaussian_q_inv",
    "reg_upper_gamma",
    "marcum_q",
]

_SQRT2 = math.sqrt(2.0)
_STANDARD_NORMAL = NormalDist()
_MAX_ORDER = 10**6  # keeps the forward finite sum's O(u) cost bounded

# Marcum series control, read at call time so a test can shrink it:
# the series stops once the Poisson mass left out is within _ABS_TOL,
# and raises ConvergenceError after _MAX_TERMS terms.
_ABS_TOL = 1e-12
_MAX_TERMS = 10000


class ConvergenceError(ArithmeticError):
    """The Marcum series underflowed at its start or ran out of terms."""


def gaussian_q(x: float) -> float:
    """Upper tail of the standard normal, Q(x) = Pr[Z > x].

    Evaluated through the complementary error function:
    Q(x) = erfc(x / sqrt(2)) / 2.
    """
    if not math.isfinite(x):
        raise ValueError(f"gaussian_q needs a finite argument, got {x!r}")
    return 0.5 * math.erfc(x / _SQRT2)


def gaussian_q_inv(p: float) -> float:
    """Inverse of gaussian_q on (0, 1): the standard library's normal quantile, negated."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"gaussian_q_inv needs 0 < p < 1, got {p!r}")
    return -_STANDARD_NORMAL.inv_cdf(p)


def _check_order(name: str, u: float) -> None:
    if not (1 <= u <= _MAX_ORDER and u == math.floor(u)):
        raise ValueError(f"{name} needs an integer order 1 <= u <= {_MAX_ORDER}, got {u!r}")


def reg_upper_gamma(u: float, x: float) -> float:
    """Regularized upper incomplete gamma, Gamma(u, x) / Gamma(u).

    Integer orders 1 <= u <= 10^6 only (5.0 passes), where it is the
    finite sum exp(-x) * sum_{k<u} x^k / k!; others raise ValueError.
    """
    _check_order("reg_upper_gamma", u)
    if not (math.isfinite(x) and x >= 0.0):
        raise ValueError(f"reg_upper_gamma needs x >= 0, got {x!r}")
    if x == 0.0:
        return 1.0
    if x < 700.0:
        return _clip_unit(_finite_sum(int(u), x)[1])
    return _clip_unit(_finite_sum_from_peak(int(u), x))


def _clip_unit(v: float) -> float:
    return min(1.0, max(0.0, v))


def _finite_sum(n: int, x: float) -> tuple[float, float]:
    # (last term, partial sum) of exp(-x) * sum_{k<n} x^k / k!. The
    # running product keeps every term in range even when x^k alone
    # would overflow (n, x up to several hundred).
    term = math.exp(-x)
    partial = term
    for k in range(1, n):
        term *= x / k
        partial += term
    return term, partial


def _finite_sum_from_peak(n: int, x: float) -> float:
    # exp(-x) * sum_{k<n} x^k / k! where exp(-x) alone nears underflow:
    # start at the largest term, k = min(n - 1, floor(x)), taken in log
    # space, and add the terms below it and above it, which fall away
    # monotonically, until one is under half an ulp of the total.
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


def _log_poisson(k: int, x: float) -> float:
    # log(x^k e^-x / k!). From k = 1000 on, Stirling's series keeps the
    # near-cancelling k log x and log k! apart, which at k = 10^6 would
    # otherwise leave an error of ~1e-9 in the exponent.
    if k < 1000:
        return k * math.log(x) - x - math.lgamma(k + 1)
    d = x - k
    return k * math.log1p(d / k) - d - 0.5 * math.log(2.0 * math.pi * k) - 1.0 / (12 * k) + 1.0 / (360 * k**3)


def _finite_sum_tails(n: int, x: float) -> Iterator[float]:
    # Yields reg_upper_gamma(n + k, x) for k = 0, 1, ... and x < 700:
    # the finite sum of order n + k is the one of order n + k - 1 plus
    # one more term of the same running product, so each tail after the
    # first costs one step and has the bits reg_upper_gamma gives.
    term, partial = _finite_sum(n, x)
    while True:
        yield _clip_unit(partial)
        term *= x / n
        partial += term
        n += 1


def marcum_q(u: float, a: float, b: float) -> float:
    """Generalized Marcum Q of integer order 1 <= u <= 10^6, Q_u(a, b).

    Canonical series: Q_u(a, b) = sum_k Pois(k; a^2/2) *
    reg_upper_gamma(u + k, b^2/2), summed from k = 0. Truncation stops
    once the remaining Poisson mass cannot move the result past _ABS_TOL
    (every gamma tail factor is at most one); a series still short of
    that after _MAX_TERMS terms raises ConvergenceError.

    Below b^2/2 = 700 the tails come from one running finite sum
    advanced a term per Poisson step: the same operations in the same
    order as reg_upper_gamma, so the same bits, at O(1) per tail
    instead of O(u + k). From there each tail is summed afresh from its
    peak, as reg_upper_gamma does. The series start exp(-a^2/2)
    underflows once a^2/2 passes about 745 (28.7 dB), and
    ConvergenceError is raised.
    """
    _check_order("marcum_q", u)
    if not (math.isfinite(a) and a >= 0.0):
        raise ValueError(f"marcum_q needs a >= 0, got {a!r}")
    if not (math.isfinite(b) and b >= 0.0):
        raise ValueError(f"marcum_q needs b >= 0, got {b!r}")
    if b == 0.0:
        return 1.0
    if a == 0.0:
        return reg_upper_gamma(u, 0.5 * b * b)
    h = 0.5 * a * a
    x = 0.5 * b * b
    pois = math.exp(-h)
    if pois == 0.0:
        raise ConvergenceError(
            f"marcum_q series start underflows at u={u!r}, a={a!r}: SNR a^2/2 = {h:.6g} "
            f"({10.0 * math.log10(h):.2f} dB), and exp(-a^2/2) underflows to 0 past about 28.7 dB"
        )
    if x < 700.0:
        tails = _finite_sum_tails(int(u), x)
    else:
        tails = (_clip_unit(_finite_sum_from_peak(int(u) + k, x)) for k in itertools.count())
    mass = pois
    total = pois * next(tails)
    for k in range(1, _MAX_TERMS + 1):
        pois *= h / k
        mass += pois
        total += pois * next(tails)
        if 1.0 - mass <= _ABS_TOL * (1.0 + total):
            return _clip_unit(total)
    raise ConvergenceError(f"marcum_q series stalled at u={u!r}, a={a!r}, b={b!r}")
