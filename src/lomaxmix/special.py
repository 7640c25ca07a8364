"""Scalar special functions: regularized upper incomplete gamma, zeta and zeta'.

The incomplete gamma follows the classic series / continued-fraction split
(series for x < a + 1, modified Lentz continued fraction otherwise).  The
prefactor x^a e^-x / Gamma(a) is evaluated through a Stirling-remainder
form for large a so the exponent is assembled without the catastrophic
cancellation of a*log(x) - x - lgamma(a).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = [
    "regularized_upper_incomplete_gamma",
    "riemann_zeta",
]

_EPS = 1e-16
_MAX_ITER = 10_000
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)
_ZETA_TERMS = 50
_ZETA_K = np.arange(_ZETA_TERMS - 1, 0, -1, dtype=float)  # smallest terms k^-s first
_ZETA_LOG_K = np.log(_ZETA_K)

# Bernoulli-number coefficients of the Stirling series for
# lgamma(a) - [(a - 1/2) log a - a + log(2 pi)/2].
_STIRLING = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
)


def _stirling_remainder(a: float) -> float:
    """lgamma(a) minus its Stirling approximation; valid for a >= 10."""
    r = 0.0
    ai = 1.0 / a
    a2 = ai * ai
    p = ai
    for c in _STIRLING:
        r += c * p
        p *= a2
    return r


def _log_prefactor(a: float, x: float) -> float:
    """log(x^a e^-x / Gamma(a)), stable also for large a with x near a."""
    if a < 10.0:
        return a * math.log(x) - x - math.lgamma(a)
    # a*log(x) - x - lgamma(a) = -a*phi(x/a) + log(a/(2 pi))/2 - remainder,
    # phi(t) = t - 1 - log(t) evaluated via log1p to keep x ~ a accurate.
    d = (x - a) / a
    phi = d - math.log1p(d)
    return -a * phi + 0.5 * math.log(a) - _HALF_LOG_TWO_PI - _stirling_remainder(a)


def _lower_series(a: float, x: float) -> float:
    """P(a, x) by power series; requires x < a + 1."""
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            return total * math.exp(_log_prefactor(a, x))
    raise ArithmeticError(f"incomplete gamma series failed to converge at a={a}, x={x}")


def _upper_continued_fraction(a: float, x: float) -> float:
    """Q(a, x) by modified Lentz continued fraction; requires x >= a + 1."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
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
        if abs(delta - 1.0) < _EPS:
            return h * math.exp(_log_prefactor(a, x))
    raise ArithmeticError(
        f"incomplete gamma continued fraction failed to converge at a={a}, x={x}"
    )


def regularized_upper_incomplete_gamma(a: float, x: float) -> float:
    """Q(a, x) = Gamma(a, x) / Gamma(a) for a > 0, x > 0."""
    if not a > 0.0:
        raise DomainError(f"incomplete gamma requires a > 0, got {a!r}")
    if not x > 0.0:
        raise DomainError(f"incomplete gamma requires x > 0, got {x!r}")
    if x < a + 1.0:
        return 1.0 - _lower_series(a, x)
    return _upper_continued_fraction(a, x)


def riemann_zeta(s: float) -> tuple[float, float]:
    """zeta(s) and its derivative zeta'(s) for s > 1.

    Both are the direct series over k < N = 50 plus the Euler-Maclaurin
    tail past it, corrected through the N^-s-3 term, and its derivative in
    s; that keeps the relative error below 1e-12 for every s > 1.
    """
    if not s > 1.0:
        raise DomainError(f"zeta requires s > 1, got {s!r}")
    powers = _ZETA_K**-s
    n, log_n = float(_ZETA_TERMS), math.log(_ZETA_TERMS)
    a, b, c, d = n ** (1.0 - s), n**-s, n ** (-s - 1.0), n ** (-s - 3.0)
    cubic = s * (s + 1.0) * (s + 2.0)
    tail = a / (s - 1.0) + 0.5 * b + s * c / 12.0 - cubic * d / 720.0
    d_tail = (
        -a * (log_n + 1.0 / (s - 1.0)) / (s - 1.0)
        - 0.5 * log_n * b
        + (1.0 - s * log_n) * c / 12.0
        - (3.0 * s * s + 6.0 * s + 2.0 - cubic * log_n) * d / 720.0
    )
    return float(powers.sum()) + tail, d_tail - float(np.dot(powers, _ZETA_LOG_K))
