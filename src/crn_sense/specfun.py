"""Scalar special functions backing the detection probability formulas.

Self-contained on purpose: only the standard library is used, so the
probability stack has no numerical dependency to drift under it. The
accuracy target throughout is absolute error well below 1e-8 over the
argument ranges a detection problem produces.

The Marcum Q series needs an upper gamma tail at each order u, u+1,
...; for an integer u below the exp(-x) underflow these are partial
sums of one running product, stepped at O(1) each, and otherwise each
tail is evaluated afresh.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator

__all__ = [
    "ConvergenceError",
    "gaussian_q",
    "gaussian_q_inv",
    "reg_upper_gamma",
    "marcum_q",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Convergence control, read at call time so a test can shrink the
# budget: _ABS_TOL is the stopping threshold (relative to the running
# sum where that sum is of order one); _MAX_TERMS caps series length
# and iteration counts before ConvergenceError is raised.
_ABS_TOL = 1e-12
_MAX_TERMS = 10000


class ConvergenceError(ArithmeticError):
    """A series or iteration exhausted its term budget before converging."""


def gaussian_q(x: float) -> float:
    """Upper tail of the standard normal, Q(x) = Pr[Z > x].

    Evaluated through the complementary error function:
    Q(x) = erfc(x / sqrt(2)) / 2.
    """
    if not math.isfinite(x):
        raise ValueError(f"gaussian_q needs a finite argument, got {x!r}")
    return 0.5 * math.erfc(x / _SQRT2)


def gaussian_q_inv(p: float) -> float:
    """Inverse of gaussian_q on (0, 1).

    Newton steps with a bisection safeguard on [-40, 40]; the bracket
    covers tail probabilities far beyond double-precision relevance.
    """
    if not (0.0 < p < 1.0):
        raise ValueError(f"gaussian_q_inv needs 0 < p < 1, got {p!r}")
    lo, hi = -40.0, 40.0
    x = 0.0
    for _ in range(_MAX_TERMS):
        err = gaussian_q(x) - p
        if err > 0.0:
            lo = x  # Q decreasing: Q(x) still above p, move right
        elif err < 0.0:
            hi = x
        else:
            return x
        pdf = math.exp(-0.5 * x * x) / _SQRT_2PI
        cand = x + err / pdf if pdf > 0.0 else math.nan
        if not math.isfinite(cand) or not (lo < cand < hi):
            cand = 0.5 * (lo + hi)
        if abs(cand - x) <= 1e-13 * max(1.0, abs(x)):
            return cand
        x = cand
    raise ConvergenceError(f"gaussian_q_inv did not converge for p={p!r}")


def reg_upper_gamma(u: float, x: float) -> float:
    """Regularized upper incomplete gamma, Gamma(u, x) / Gamma(u).

    Integer orders take the closed-form finite sum
    exp(-x) * sum_{k=0}^{u-1} x^k / k!; other orders use the usual
    lower-series / continued-fraction split at x = u + 1.
    """
    if not (math.isfinite(u) and u > 0.0):
        raise ValueError(f"reg_upper_gamma needs u > 0, got {u!r}")
    if not (math.isfinite(x) and x >= 0.0):
        raise ValueError(f"reg_upper_gamma needs x >= 0, got {x!r}")
    if x == 0.0:
        return 1.0
    if _takes_finite_sum(u, x):
        return _clip_unit(_finite_sum(int(u), x)[1])
    if x < u + 1.0:
        return _clip_unit(1.0 - _lower_gamma_series(u, x))
    return _clip_unit(_upper_gamma_cf(u, x))


def _clip_unit(v: float) -> float:
    return min(1.0, max(0.0, v))


def _takes_finite_sum(u: float, x: float) -> bool:
    # exp(-x) underflows near 709; beyond that the finite sum cannot be
    # built term by term, so fall through to the continued fraction.
    return u == math.floor(u) and u <= 1e6 and x < 700.0


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


def _finite_sum_tails(n: int, x: float) -> Iterator[float]:
    # Yields reg_upper_gamma(n + k, x) for k = 0, 1, ...: the finite sum
    # of order n + k is the one of order n + k - 1 plus one more term of
    # the same running product, so each tail after the first costs one
    # step and has the bits reg_upper_gamma gives.
    term, partial = _finite_sum(n, x)
    while True:
        yield _clip_unit(partial)
        term *= x / n
        partial += term
        n += 1


def _lower_gamma_series(u: float, x: float) -> float:
    ap = u
    term = 1.0 / u
    total = term
    for _ in range(_MAX_TERMS):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _ABS_TOL:
            return total * math.exp(-x + u * math.log(x) - math.lgamma(u))
    raise ConvergenceError(f"lower gamma series stalled at u={u!r}, x={x!r}")


def _upper_gamma_cf(u: float, x: float) -> float:
    # Modified Lentz evaluation of the standard continued fraction.
    tiny = 1e-300
    b = x + 1.0 - u
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, _MAX_TERMS + 1):
        an = -i * (i - u)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _ABS_TOL:
            return h * math.exp(-x + u * math.log(x) - math.lgamma(u))
    raise ConvergenceError(f"upper gamma continued fraction stalled at u={u!r}, x={x!r}")


def marcum_q(u: float, a: float, b: float) -> float:
    """Generalized Marcum Q of order u >= 1, Q_u(a, b).

    Canonical series: Q_u(a, b) = sum_k Pois(k; a^2/2) *
    reg_upper_gamma(u + k, b^2/2), summed from k = 0. Truncation stops
    once the remaining Poisson mass cannot move the result past _ABS_TOL
    (every gamma tail factor is at most one); a series still short of
    that after _MAX_TERMS terms raises ConvergenceError.

    When reg_upper_gamma would take its finite sum for every order the
    series can reach (integer u, b^2/2 < 700, u + _MAX_TERMS <= 1e6), the
    tails come from one running finite sum advanced a term per Poisson
    step: the same operations in the same order, so the same bits, at
    O(1) per tail instead of O(u + k). Otherwise each tail is a fresh
    reg_upper_gamma call. The series start exp(-a^2/2) underflows once
    a^2/2 passes about 745 (28.7 dB), and ConvergenceError is raised.
    """
    if not (math.isfinite(u) and u >= 1.0):
        raise ValueError(f"marcum_q needs order u >= 1, got {u!r}")
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
    if _takes_finite_sum(u + _MAX_TERMS, x):  # so does every lower order
        tails = _finite_sum_tails(int(u), x)
    else:
        tails = (reg_upper_gamma(u + k, x) for k in itertools.count())
    mass = pois
    total = pois * next(tails)
    for k in range(1, _MAX_TERMS + 1):
        pois *= h / k
        mass += pois
        total += pois * next(tails)
        if 1.0 - mass <= _ABS_TOL * (1.0 + total):
            return _clip_unit(total)
    raise ConvergenceError(f"marcum_q series stalled at u={u!r}, a={a!r}, b={b!r}")
