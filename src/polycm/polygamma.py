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

polygamma is the scalar reference.  _polygamma_array runs the same steps and
the same error-bar formula over whole arrays of orders and arguments at once;
cm_scan evaluates its grids through it.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .constants import _BERNOULLI

#: Hard cap on the derivative order.  Keeps n! comfortably inside binary64;
#: the scans and the CLI reach k + n = 40 itself.
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
    estimate is an over-bound on the actual absolute error.  OverflowError
    propagates, rather than a silently degraded value, wherever an
    intermediate power leaves binary64 range: at small x, where orders near
    the cap push the recurrence terms past it, and at large x, where
    y^(n+1) in the asymptotic head overflows although the result need not
    (polygamma(28, 1.2e11) raises; its value, about -6.6e-283, is
    representable).
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


# The array kernel's copies of the scalar engine's tables.
_COEFFICIENT_ARRAY = np.array(_COEFFICIENTS)
_FACTORIALS = np.array([float(math.factorial(n)) for n in range(MAX_ORDER + 1)])
_THRESHOLDS = np.array([shift_threshold(n) for n in range(MAX_ORDER + 1)])

#: CPython's ** raises OverflowError where libm reports a range error: an
#: infinite or a subnormal result.  numpy's power never raises, so a power
#: outside [_TINY, _HUGE] sends its element back to the scalar engine.  The
#: factor of two keeps an ulp of difference between numpy's power and libm's
#: pow from putting the two on different sides of the edge.
_TINY = 2.0 * sys.float_info.min
_HUGE = 0.5 * sys.float_info.max


def _in_range(p: np.ndarray) -> np.ndarray:
    return (p >= _TINY) & (p <= _HUGE)


def _polygamma_array(n: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """polygamma(n[i], x[i]) for every i, as (values, error bars).

    Orders and arguments must already be valid.  Each element goes through
    polygamma's steps: its own shift count, the same head, the same 20-term
    series with its own stop, and the same error bar.  Values can differ
    from the scalar ones by the last-ulp differences between numpy's
    power and log and libm's.  An element for which the scalar engine would
    raise, or could, is evaluated by polygamma itself, in index order; so
    the first one that raises raises what [polygamma(*e) for e in zip(n, x)]
    would raise.
    """
    n = np.asarray(n, dtype=np.intp)
    x = np.asarray(x, dtype=float)
    zero = n == 0
    order = n.astype(float)
    count = np.maximum(0.0, np.ceil(_THRESHOLDS[n] - x))
    with np.errstate(over="ignore", under="ignore"):
        # shift pass: sum of 1/(x+j) for n = 0, of (x+j)^-(n+1) for n >= 1,
        # over the elements below their threshold; sorted by shift count,
        # step j works on the prefix of those still shifting
        below = np.flatnonzero(count)
        below = below[np.argsort(-count[below], kind="stable")]
        xb, eb, zb = x[below], -(order[below] + 1.0), zero[below]
        shifting = np.searchsorted(-count[below], -np.arange(count.max(initial=0.0)))
        accb = np.zeros_like(xb)
        ok = np.ones(x.shape, dtype=bool)
        for j, m in enumerate(shifting.tolist()):
            xj = xb[:m] + j
            term = np.power(xj, eb[:m])
            if j == 0:
                ok[below] = zb | _in_range(term)
            if zb.any():
                term = np.where(zb[:m], 1.0 / xj, term)
            accb[:m] += term
        acc = np.zeros_like(x)
        acc[below] = accb

        # heads: ln y - 1/(2y) for n = 0, (n-1)!/y^n + n!/(2 y^(n+1)) for n >= 1
        y = x + count
        inv2 = 1.0 / (y * y)
        fact_nm1 = _FACTORIALS[np.maximum(n - 1, 0)]
        lead_power = np.power(y, -order)
        half_power = np.power(y, order + 1.0)
        next_power = np.power(y, -(order + 2.0))
        ok &= zero | (_in_range(lead_power) & _in_range(half_power) & _in_range(next_power))
        head = fact_nm1 * lead_power + fact_nm1 * order / (2.0 * half_power)
        log_head = np.log(y) - 0.5 / y
        value = np.where(zero, log_head, head)
        budget = np.where(zero, np.abs(log_head) + 1.0 / y, head)
        power = np.where(zero, inv2, next_power)

        # series: an element whose terms start growing again keeps that
        # term as its truncation bound, and its power drops to zero so that
        # nothing more is added to it
        coefficients = _COEFFICIENT_ARRAY[n]
        trunc = np.zeros_like(x)
        prev = np.full_like(x, math.inf)
        running = np.ones(x.shape, dtype=bool)
        for j in range(_MAX_ASYMPTOTIC_TERMS):
            term = coefficients[:, j] * power
            size = np.abs(term)
            stop = running & (size >= prev)
            if stop.any():
                trunc[stop] = size[stop]
                running &= ~stop
                term[stop] = size[stop] = power[stop] = 0.0
            value += term
            budget += size
            prev = size
            power *= inv2
        last = np.abs(coefficients[:, _MAX_ASYMPTOTIC_TERMS] * power)
        trunc = np.where(running, last, trunc)

        shift = np.where(zero, acc, _FACTORIALS[n] * acc)
        total = np.where(zero, value - shift, value + shift)
        budget += shift
        bars = trunc + _EPS * (2.0 * budget + 8.0 * np.abs(total))
    values = np.where(zero | (n % 2 == 1), total, -total)
    for i in np.flatnonzero(~(ok & np.isfinite(bars))):
        r = polygamma(int(n[i]), float(x[i]))
        values[i], bars[i] = r.value, r.abs_error_estimate
    return values, bars


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
