"""Evaluator for the digamma function and its higher derivatives on x > 0.

Strategy: push the argument upward with the recurrence

    psi_n(x) = psi_n(x + 1) - (-1)^n n! / x^(n+1)

until it clears shift_threshold(n), evaluate the Bernoulli asymptotic series
there, then fold the collected recurrence terms back in.  For n >= 1 the
series magnitude and every folded term share one sign, so the evaluation is
a sum of positive quantities with the final sign (-1)^(n+1) attached at the
end; the only cancellation in the module lives on the n = 0 path, where the
logarithm dominates and the relative error stays at a few ulp.

Every result carries a conservative absolute-error estimate: the magnitude
of the first omitted asymptotic term plus an ulp-level rounding budget over
everything that was added.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

from .constants import _BERNOULLI

#: Hard cap on the derivative order.  Keeps n! comfortably inside binary64
#: and is far above anything the monotonicity scans request (k + n <~ 20).
MAX_ORDER = 40

_EPS = sys.float_info.epsilon
_MAX_ASYMPTOTIC_TERMS = 20


@dataclass(frozen=True)
class EvalResult:
    """A value paired with a conservative absolute-error estimate."""

    value: float
    abs_error_estimate: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.abs_error_estimate) or self.abs_error_estimate < 0.0:
            raise ValueError(
                f"abs_error_estimate must be finite and >= 0, got {self.abs_error_estimate!r}"
            )


def shift_threshold(n: int) -> float:
    """Smallest argument at which the asymptotic series is trusted for order n."""
    return float(max(10, n + 8))


def _check_order(n: int) -> int:
    n = operator.index(n)
    if n < 0 or n > MAX_ORDER:
        raise ValueError(f"derivative order must be in [0, {MAX_ORDER}], got {n}")
    return n


def _check_x(x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    if x <= 0.0:
        raise ValueError(f"x must be positive, got {x!r}")
    return x


#: Row n holds the series coefficients for j = 1 .. _MAX_ASYMPTOTIC_TERMS + 1:
#: -B_2j/(2j) for n = 0 (digamma's minus sign folded in) and
#: B_2j (2j+n-1)!/(2j)! for n >= 1 (the terms of |psi_n|).
_COEFFICIENTS = tuple(
    tuple(
        -(_BERNOULLI[2 * j] / (2 * j)) if n == 0
        else _BERNOULLI[2 * j] * float(math.perm(2 * j + n - 1, n - 1))
        for j in range(1, _MAX_ASYMPTOTIC_TERMS + 2)
    )
    for n in range(MAX_ORDER + 1)
)


def _asymptotic(n: int, y: float) -> tuple[float, float, float]:
    """psi(y) for n = 0, |psi_n(y)| for n >= 1, at y >= shift_threshold(n):

    psi(y)     = ln y - 1/(2y) - sum_j B_2j / (2j y^2j)
    |psi_n(y)| = (n-1)!/y^n + n!/(2 y^(n+1))
                 + sum_j B_2j (2j+n-1)!/((2j)! y^(2j+n))

    Returns (value, truncation bound, magnitude budget).  The truncation
    bound is the first omitted term, taken either when the terms start
    growing again or after the 20-term cap.
    """
    coefficients = _COEFFICIENTS[n]
    inv2 = 1.0 / (y * y)
    # inv2 and y ** -(n + 2) round differently, so each head keeps its own power
    if n == 0:
        value = math.log(y) - 0.5 / y
        budget = abs(value) + 1.0 / y
        power = inv2
    else:
        fact_nm1 = float(math.factorial(n - 1))
        lead = fact_nm1 * y ** float(-n)
        half = fact_nm1 * n / (2.0 * y ** float(n + 1))
        value = lead + half
        budget = lead + half
        power = y ** float(-(n + 2))
    prev = math.inf
    for c in coefficients[:_MAX_ASYMPTOTIC_TERMS]:
        term = c * power
        if abs(term) >= prev:
            return value, abs(term), budget
        value += term
        budget += abs(term)
        prev = abs(term)
        power *= inv2
    return value, abs(coefficients[_MAX_ASYMPTOTIC_TERMS] * power), budget


def polygamma(n: int, x: float) -> EvalResult:
    """psi_n(x) for integer order 0 <= n <= 40 and x > 0.

    Relative accuracy is ~1e-14 across x in [1e-3, 1e6]; the returned error
    estimate is an over-bound on the actual absolute error.  Orders near the
    cap combined with x below ~1e-3 can push the recurrence terms past
    binary64 range, in which case OverflowError propagates rather than a
    silently degraded value.
    """
    n = _check_order(n)
    x = _check_x(x)
    shift_count = max(0, math.ceil(shift_threshold(n) - x))
    y = x + shift_count
    series, trunc, budget = _asymptotic(n, y)
    if n == 0:
        shift = 0.0
        for j in range(shift_count):
            shift += 1.0 / (x + j)
        value = series - shift
        budget += shift
        err = trunc + _EPS * (2.0 * budget + 8.0 * abs(value))
        return EvalResult(value, err)
    fact = float(math.factorial(n))
    acc = 0.0
    for j in range(shift_count):
        acc += (x + j) ** float(-(n + 1))
    mag_total = series + fact * acc
    budget += fact * acc
    sign = 1.0 if n % 2 == 1 else -1.0
    err = trunc + _EPS * (2.0 * budget + 8.0 * mag_total)
    return EvalResult(sign * mag_total, err)


def digamma(x: float) -> EvalResult:
    """psi(x); identical to polygamma(0, x)."""
    return polygamma(0, x)


def factorial_over_power(n: int, x: float) -> float:
    """n! / x^(n+1), switching to log-space when the direct power overflows.

    Returns inf (or 0.0) when the true value leaves binary64 range.
    """
    n = _check_order(n)
    x = _check_x(x)
    log_value = math.lgamma(n + 1) - (n + 1) * math.log(x)
    if log_value > 709.0:
        return math.inf
    if log_value < -745.0:
        return 0.0
    try:
        p = x ** float(n + 1)
    except OverflowError:
        return math.exp(log_value)
    if p == 0.0 or not math.isfinite(p):
        return math.exp(log_value)
    return float(math.factorial(n)) / p
