"""Special functions backing the detection probability formulas.

gaussian_q, reg_upper_gamma and marcum_q take a float, giving a float,
or an ndarray of them (marcum_q's b), giving an ndarray of the same
shape whose every element has the float call's bits. Only the
standard library and numpy are used, so the
probability stack has no numerical dependency to drift under it. The
accuracy target throughout is absolute error well below 1e-8 over the
argument ranges a detection problem produces.

The detector order u is the time-bandwidth product, an integer, so
every upper gamma tail, the Marcum series' included, is the finite sum
exp(-x) * sum_{k<u} x^k / k!: built forward from exp(-x) below
x = 700, and outward from its largest term beyond, where exp(-x) nears
underflow. reg_upper_gamma and marcum_q read their tails from one
generator, the one place that makes this choice: reg_upper_gamma takes
its order-u column, marcum_q a Poisson mixture of its columns of order
u and up. marcum_q has one path for every a: at a = 0 its series is
the central tail, with reg_upper_gamma's bits, after one term. The
forward sums and the Poisson series step along their index in 2D
chunks, one row per element, with numpy's sequential accumulates, so
every element sees the products and sums of a scalar loop in the same
order. exp itself is the standard library's per element, as is erfc:
numpy's exp differs from math.exp in the last bit at some arguments.
The normal quantile is the standard library's.
"""

from __future__ import annotations

import math
import sys
from statistics import NormalDist

import numpy as np

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

# A series chunk is _FIRST_WIDTH index steps wide at first and doubles,
# up to about _CHUNK_DOUBLES doubles in all rows together.
_FIRST_WIDTH = 16
_CHUNK_DOUBLES = 2**16


class ConvergenceError(ArithmeticError):
    """The Marcum series underflowed at its start or ran out of terms."""


def checked_values(x, message: str, nonnegative: bool = True) -> np.ndarray:
    """x, a float or an array of them, as a 1-D float array.

    A NaN, an infinity or, if nonnegative, a negative entry raises
    ValueError(f"{message}, got {value!r}"), naming the first such entry.
    """
    values = np.asarray(x, dtype=float).reshape(-1)
    bad = ~np.isfinite(values)
    if nonnegative:
        bad |= values < 0.0
    if bad.any():
        shown = x if np.ndim(x) == 0 else float(values[bad][0])
        raise ValueError(f"{message}, got {shown!r}")
    return values


def _like(x, values: np.ndarray):
    # a float for a float argument, else an array of the argument's shape
    return float(values[0]) if np.ndim(x) == 0 else values.reshape(np.shape(x))


def gaussian_q(x):
    """Upper tail of the standard normal, Q(x) = Pr[Z > x].

    Evaluated through the complementary error function:
    Q(x) = erfc(x / sqrt(2)) / 2.
    """
    values = checked_values(x, "gaussian_q needs a finite argument", nonnegative=False)
    return _like(x, 0.5 * np.array([math.erfc(v) for v in (values / _SQRT2).tolist()]))


def gaussian_q_inv(p: float) -> float:
    """Inverse of gaussian_q on (0, 1): the standard library's normal quantile, negated."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"gaussian_q_inv needs 0 < p < 1, got {p!r}")
    return -_STANDARD_NORMAL.inv_cdf(p)


def _check_order(name: str, u: float) -> None:
    if not (1 <= u <= _MAX_ORDER and u == math.floor(u)):
        raise ValueError(f"{name} needs an integer order 1 <= u <= {_MAX_ORDER}, got {u!r}")


def reg_upper_gamma(u: float, x):
    """Regularized upper incomplete gamma, Gamma(u, x) / Gamma(u).

    Integer orders 1 <= u <= 10^6 only (5.0 passes), where it is the
    finite sum exp(-x) * sum_{k<u} x^k / k!; others raise ValueError.
    """
    _check_order("reg_upper_gamma", u)
    tails = next(_tails(int(u), checked_values(x, "reg_upper_gamma needs x >= 0")))
    return _like(x, np.minimum(tails[:, 0], 1.0))


def _tails(n: int, x: np.ndarray):
    # gamma tails of orders n, n + 1, ..., n + _MAX_TERMS, one row per
    # element of x: a column for order n, then chunks of the rest. Below
    # x = 700 they come from one running finite sum (the tail of order
    # m + 1 adds one term to that of order m), with the other rows run at
    # x = 0, whose terms are 0.0 after the first and add nothing; from
    # x = 700 each tail is summed afresh from its peak. Every tail is a
    # sum of terms >= +0.0, so of a clip to [0, 1] only the top can bind.
    peak = x >= 700.0
    values = x[peak].tolist()
    forward = np.where(peak, 0.0, x)

    def with_peaks(tails: np.ndarray, order: int) -> np.ndarray:
        # tails of orders order, order + 1, ... with its peak rows filled
        if values:
            orders = range(order, order + tails.shape[1])
            tails[peak] = [[_finite_sum_from_peak(m, v) for m in orders] for v in values]
        return tails

    term, partial = _finite_sum(n, forward)
    yield with_peaks(partial[:, None], n)
    for first, width in _chunks(x.size, n, n + _MAX_TERMS):
        term, tails = _step(term, partial, forward, first, width)
        partial = tails[:, -1]
        yield with_peaks(tails, first + 1)


def _chunks(rows: int, start: int, stop: int):
    # (first, width) column chunks covering the indices start .. stop - 1
    cap = max(1, _CHUNK_DOUBLES // max(rows, 1) - 1)
    width = _FIRST_WIDTH
    while start < stop:
        step = min(width, cap, stop - start)
        yield start, step
        start += step
        width *= 2


def _step(term: np.ndarray, partial: np.ndarray, x: np.ndarray, first: int, width: int):
    # the running finite sums advanced by the terms k = first .. first +
    # width - 1, term *= x / k then partial += term: (last terms, partial
    # sum after each term). The running product keeps every term in
    # range even when x^k alone would overflow (k, x up to several
    # hundred). Both accumulates are sequential along a row.
    block = np.empty((x.size, width + 1))
    block[:, 0] = term
    np.divide(x[:, None], np.arange(first, first + width), out=block[:, 1:])
    np.multiply.accumulate(block, axis=1, out=block)
    term = block[:, -1].copy()
    block[:, 0] = partial
    np.add.accumulate(block, axis=1, out=block)
    return term, block[:, 1:]


def _finite_sum(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # (last terms, partial sums) of exp(-x) * sum_{k<n} x^k / k! for an
    # array of x < 700. Once every term has underflowed to 0.0 every
    # later one is 0.0 and adds nothing, so stopping there returns the
    # same bits.
    term = np.array([math.exp(-v) for v in x.tolist()])
    partial = term.copy()
    for first, width in _chunks(x.size, 1, n):
        if not term.any():
            break
        term, partials = _step(term, partial, x, first, width)
        partial = partials[:, -1]
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


def marcum_q(u: float, a: float, b):
    """Generalized Marcum Q of integer order 1 <= u <= 10^6, Q_u(a, b).

    Canonical series: Q_u(a, b) = sum_k Pois(k; a^2/2) *
    reg_upper_gamma(u + k, b^2/2), summed from k = 0. Truncation stops
    once the remaining Poisson mass cannot move the result past _ABS_TOL
    (every gamma tail factor is at most one); a series still short of
    that after _MAX_TERMS terms raises ConvergenceError. b may be an
    array, and each element stops at its own first such term. At a = 0
    every weight after the first is 0, the series stops at k = 1, and
    the result is reg_upper_gamma(u, b^2/2) to the bit: the central
    case needs no branch of its own.

    The tails come from the generator reg_upper_gamma reads, so each
    has the bits of reg_upper_gamma at its order. Below b^2/2 = 700 the
    generator steps one running finite sum a term per Poisson step, at
    O(1) per tail instead of O(u + k); from there it sums each tail
    afresh from its peak. Every tail is a sum of terms >= +0.0, so of
    the clip to [0, 1] only the top one can bind. The series
    start exp(-a^2/2) is subnormal, short of bits, once a^2/2 passes
    708.4 (28.50 dB), and ConvergenceError is raised there.
    """
    _check_order("marcum_q", u)
    if not (math.isfinite(a) and a >= 0.0):
        raise ValueError(f"marcum_q needs a >= 0, got {a!r}")
    values = checked_values(b, "marcum_q needs b >= 0")
    x = 0.5 * values * values
    n = int(u)
    h = 0.5 * a * a
    if math.exp(-h) < sys.float_info.min and values.any():
        raise ConvergenceError(
            f"marcum_q series start underflows at u={u!r}, a={a!r}: SNR a^2/2 = {h:.6g} "
            f"({10.0 * math.log10(h):.2f} dB), and exp(-a^2/2) is subnormal past 708.4 (28.50 dB)"
        )
    q = np.ones_like(x)  # b == 0 gives 1
    rows = values > 0.0
    q[rows] = _poisson_sum(h, _tails(n, x[rows]))
    if np.isnan(q).any():
        stalled = float(values[np.isnan(q)][0])
        raise ConvergenceError(f"marcum_q series stalled at u={u!r}, a={a!r}, b={stalled!r}")
    return _like(b, q)


def _poisson_sum(h: float, tails) -> np.ndarray:
    # sum_k Pois(k; h) * min(tail_k, 1) per row of the tail chunks, each
    # row stopped at its first k >= 1 where 1 - mass <= _ABS_TOL *
    # (1 + sum); NaN where no k up to _MAX_TERMS does. The Poisson
    # weights are the same for every row, and each row's sum is one
    # sequential accumulate along it.
    pois = math.exp(-h)
    mass = pois
    total = pois * np.minimum(next(tails)[:, 0], 1.0)
    q = np.full(total.size, np.nan)
    k = 1
    for chunk in tails:
        width = chunk.shape[1]
        weights = np.multiply.accumulate(np.concatenate(([pois], h / np.arange(k, k + width))))[1:]
        masses = np.add.accumulate(np.concatenate(([mass], weights)))[1:]
        block = np.empty((total.size, width + 1))
        block[:, 0] = total
        np.minimum(chunk, 1.0, out=block[:, 1:])
        block[:, 1:] *= weights
        np.add.accumulate(block, axis=1, out=block)
        sums = block[:, 1:]
        stop = 1.0 - masses <= _ABS_TOL * (1.0 + sums)
        hit = np.isnan(q) & stop.any(axis=1)
        q[hit] = np.minimum(sums[hit, stop[hit].argmax(axis=1)], 1.0)
        if not np.isnan(q).any():
            break
        pois, mass, total = weights[-1], masses[-1], sums[:, -1].copy()
        k += width
    return q
