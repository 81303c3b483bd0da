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
exp(-x) * sum_{k<u} x^k / k!. reg_upper_gamma and marcum_q read their
tails from one generator: reg_upper_gamma takes its order-u row,
marcum_q a Poisson mixture of its rows of order u and up. The first
row is built forward from exp(-x) below x = 700, and outward from its
largest term beyond, where exp(-x) nears underflow; every later row is
the row above plus one term, from x = 700 a term taken from log
space. marcum_q has one path for every a: at a = 0 its series is the
central tail, with reg_upper_gamma's bits, after one term. The forward
sums and the Poisson series step along their index in 2D chunks, one
row per order and one column per element. Every running product and
sum goes down a chunk's rows through _accumulate, one ufunc call per
row once a chunk has 16 or more elements per row, and numpy's
accumulate below that, where it is the faster; either way each
element sees the products and sums of a scalar loop in the same
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
# up to about _CHUNK_DOUBLES doubles in all its orders together; the
# Marcum series starts from a width that fits its Poisson weights.
# 2^14 doubles are 128 KiB, glibc's default mmap threshold: a block
# under it is reused from the heap, where a larger one is mapped afresh
# and pays first-touch page faults every chunk.
_FIRST_WIDTH = 16
_CHUNK_DOUBLES = 2**14

# _accumulate steps a chunk one order at a time once it has at least
# this many levels per order, and leaves fewer to numpy's accumulate.
_LOOP_RATIO = 16


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
    return _like(x, 0.5 * np.fromiter(map(math.erfc, (values / _SQRT2).tolist()), float, values.size))


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
    return _like(x, np.minimum(tails[0], 1.0))


def _tails(n: int, x: np.ndarray, width: int = _FIRST_WIDTH):
    # gamma tails of orders n, n + 1, ..., n + _MAX_TERMS, one row per
    # order and one column per element of x: a row for order n, then
    # chunks of the rest, the first `width` orders wide; where the
    # chunks end changes no bit. The order-n row is the running finite
    # sum below x = 700 and the sum from the peak from there; each later
    # row adds one term to the row above (DLMF 8.8). Every tail is a sum
    # of terms >= +0.0, so of a clip to [0, 1] only the top can bind.
    # Each chunk after the first is a fresh array the caller may overwrite.
    peak = np.flatnonzero(x >= 700.0)
    term, partial = _finite_sum(n, x)
    partial[peak] = [_finite_sum_from_peak(n, v) for v in x[peak].tolist()]
    yield partial[None]
    for first, step in _chunks(x.size, n, n + _MAX_TERMS, width):
        term, tails = _step(term, partial, x, first, step, peak)
        partial = tails[-1].copy()
        yield tails


def _chunks(levels: int, start: int, stop: int, width: int):
    # (first, width) row chunks covering the indices start .. stop - 1,
    # `width` wide at first and doubling, each holding about
    # _CHUNK_DOUBLES doubles at most over all levels
    cap = max(1, _CHUNK_DOUBLES // max(levels, 1) - 1)
    while start < stop:
        step = min(width, cap, stop - start)
        yield start, step
        start += step
        width *= 2


def _accumulate(ufunc: np.ufunc, block: np.ndarray) -> np.ndarray:
    # block[j] = ufunc(block[j - 1], block[j]) for j = 1, 2, ... in
    # place: one running product or sum per column, in the same IEEE
    # operations and order either way. numpy's accumulate down the rows
    # runs one short loop per column, 16 ns a column at 2 rows and 66 ns
    # at 17, while one ufunc call per row costs ~0.9 us plus ~1 ns a
    # column. The two break even near 16 columns per row: a (17, 272)
    # block takes 15 us to loop and 16 us to accumulate, a (17, 200) one
    # 15 us against 12 us, and a (17, 2049) one 38 us against 135 us.
    rows, levels = block.shape
    if levels >= _LOOP_RATIO * rows:
        for j in range(1, rows):
            ufunc(block[j - 1], block[j], out=block[j])
    else:
        ufunc.accumulate(block, axis=0, out=block)
    return block


def _step(term: np.ndarray, partial: np.ndarray, x: np.ndarray, first: int, width: int, peak=()):
    # the running finite sums advanced by the terms k = first .. first +
    # width - 1, term *= x / k then partial += term: (last terms, partial
    # sum after each term, one row per term). The running product keeps
    # every term in range even when x^k alone would overflow (k, x up to
    # several hundred). The peak columns (x >= 700), whose exp(-x) nears
    # underflow, take each term by Stirling's series in log space (off by
    # 1e-15 or more only below k = 240, where each such term is < 1e-89)
    # and math.exp per element, so that no bit depends on the array width.
    block = np.empty((width + 1, x.size))
    block[0] = term
    np.divide(x, np.arange(first, first + width)[:, None], out=block[1:])
    _accumulate(np.multiply, block)
    if len(peak):
        values = x[peak].tolist()
        block[1:, peak] = [[math.exp(_log_poisson(k, v, 1)) for v in values] for k in range(first, first + width)]
    term = block[-1].copy()
    block[0] = partial
    return term, _accumulate(np.add, block)[1:]


def _finite_sum(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # (last terms, partial sums) of exp(-x) * sum_{k<n} x^k / k! for an
    # array of x, right below x = 700; _tails discards the columns from
    # there. Once every term has underflowed to 0.0 every later one is
    # 0.0 and adds nothing, so stopping there returns the same bits.
    term = np.fromiter(map(math.exp, (-x).tolist()), float, x.size)
    partial = term.copy()
    for first, width in _chunks(x.size, 1, n, _FIRST_WIDTH):
        if not term.any():
            break
        term, partials = _step(term, partial, x, first, width)
        partial = partials[-1]
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


def _log_poisson(k: int, x: float, stirling_from: int = 1000) -> float:
    # log(x^k e^-x / k!). From k = stirling_from on, Stirling's series
    # keeps the near-cancelling k log x and log k! apart, which would
    # otherwise leave an error of up to 2e-12 in the exponent near k = 900
    # and ~1e-9 at k = 10^6.
    if k < stirling_from:
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

    The tails come from the generator reg_upper_gamma reads, which
    steps one running finite sum a term per Poisson step, at O(1) per
    tail instead of O(u + k). Below b^2/2 = 700 every tail has the bits
    of reg_upper_gamma at its order; from there only the first does,
    and each later one adds a term taken from log space. Every tail is
    a sum of terms >= +0.0, so of the clip to [0, 1] only the top one
    can bind. The series start exp(-a^2/2) is subnormal, short of bits,
    once a^2/2 passes 708.4 (28.50 dB), and ConvergenceError is raised
    there.
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
    positive = values > 0.0
    # for every h up to the series-start limit, 1 - mass falls within
    # 1e-12 by k = h + 7.3 sqrt(h) + 6, so a series whose first chunk is
    # that wide (8 orders at -14 dB) stops in it unless capped
    width = math.ceil(h + 7.3 * math.sqrt(h) + 6.0)
    q[positive] = _poisson_sum(h, _tails(n, x[positive], width))
    if np.isnan(q).any():
        stalled = float(values[np.isnan(q)][0])
        raise ConvergenceError(f"marcum_q series stalled at u={u!r}, a={a!r}, b={stalled!r}")
    return _like(b, q)


def _poisson_sum(h: float, tails) -> np.ndarray:
    # sum_k Pois(k; h) * min(tail_k, 1) per column of the tail chunks,
    # each column stopped at its first k >= 1 where 1 - mass <= _ABS_TOL
    # * (1 + sum); NaN where no k up to _MAX_TERMS does. The Poisson
    # weights are the same for every column, one per row, and each
    # column's sum runs down its rows through _accumulate.
    pois = math.exp(-h)
    mass = pois
    total = pois * np.minimum(next(tails)[0], 1.0)
    q = np.full(total.size, np.nan)
    running = q.size
    k = 1
    for chunk in tails:
        width = chunk.shape[0]
        weights = np.multiply.accumulate(np.concatenate(([pois], h / np.arange(k, k + width))))[1:]
        masses = np.add.accumulate(np.concatenate(([mass], weights)))[1:]
        sums = np.minimum(chunk, 1.0, out=chunk)
        sums *= weights[:, None]
        sums[0] += total
        _accumulate(np.add, sums)
        # Down the rows 1 - mass falls and every sum grows, so a column
        # stops in this chunk if it stops at its last row, and it stops
        # by row hi - 1, the first where 1 - mass is within _ABS_TOL,
        # which every sum >= 0 meets.
        rest = 1.0 - masses
        hit = np.isnan(q) & (rest[-1] <= _ABS_TOL * (1.0 + sums[-1]))
        stopped = np.count_nonzero(hit)
        if stopped:
            hi = np.searchsorted(-rest, -_ABS_TOL) + 1
            rows = sums[:hi]
            first = (rest[:hi, None] <= _ABS_TOL * (1.0 + rows)).argmax(axis=0)
            q[hit] = np.minimum(rows[first[hit], hit], 1.0)
            running -= stopped
        if not running:
            break
        pois, mass, total = weights[-1], masses[-1], sums[-1].copy()
        k += width
    return q
