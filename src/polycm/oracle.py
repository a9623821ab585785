"""Deliberately simple evaluators used to cross-check the fast engine.

Series forms sum their first max_terms terms with one exactly rounded
math.fsum and close the rest with an Euler-Maclaurin tail whose remainder
bound (DLMF 2.10.1, with |B~_8| <= |B_8|) becomes the error bar.
Integral forms use adaptive bisection with a 15-point Gauss-Legendre rule
per panel and a 7-point companion rule for the panel error estimate; the
truncated upper tail is covered by an exact closed-form bound, so the
reported error is sound, not heuristic.

Nothing here shares evaluation code with the engine; only Euler's
constant, the argument checks and the machine epsilon are common.  Simple and
transparent on purpose.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constants import GAMMA_EULER
from .polygamma import _EPS, EvalResult, _check_order, _check_x

_TINY_INTEGRAND = 1e-18
_SMALL_T = 1e-3        # switch to the Taylor form of t/(1-e^-t)
_SMALL_T_DIFF = 0.05   # switch to the series form of r(t) - r(at)

# B_2j/(2j)! for j = 1..4 (DLMF 24.2.1), written out here so the oracle
# shares no table with the engine
_EM_COEFFICIENTS = (1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0, -1.0 / 1209600.0)
# 2 zeta(8)/(2 pi)^8 = |B_8|/8! = 8.27e-7, rounded up
_EM_REMAINDER = 8.4e-7
_SERIES_CHUNK = 1 << 16  # series terms formed per numpy call

_NODES_HI, _WEIGHTS_HI = np.polynomial.legendre.leggauss(15)
_NODES_LO, _WEIGHTS_LO = np.polynomial.legendre.leggauss(7)


class QuadratureError(RuntimeError):
    """Raised when the subdivision budget runs out before rel_tol is met."""


@dataclass(frozen=True)
class SeriesSpec:
    """Controls for the direct summation oracles.

    max_terms is the count K of terms summed before the Euler-Maclaurin
    tail takes over at K + x.
    """

    max_terms: int = 1000

    def __post_init__(self) -> None:
        object.__setattr__(self, "max_terms", operator.index(self.max_terms))
        if self.max_terms < 100:
            raise ValueError(f"max_terms must be >= 100, got {self.max_terms}")


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for the adaptive quadrature oracles.

    upper_cutoff = None lets each integral pick its own truncation point by
    doubling T from 30/x until the integrand at T drops below 1e-18.
    """

    upper_cutoff: float | None = None
    rel_tol: float = 1e-10
    max_subdivisions: int = 4000

    def __post_init__(self) -> None:
        if self.upper_cutoff is not None and not (
            math.isfinite(self.upper_cutoff) and self.upper_cutoff > 0.0
        ):
            raise ValueError(f"upper_cutoff must be positive, got {self.upper_cutoff!r}")
        if not 1e-14 <= self.rel_tol <= 1e-6:
            raise ValueError(f"rel_tol must lie in [1e-14, 1e-6], got {self.rel_tol!r}")
        if self.max_subdivisions < 10:
            raise ValueError(f"max_subdivisions must be >= 10, got {self.max_subdivisions}")


_DEFAULT_SERIES = SeriesSpec()
_DEFAULT_QUAD = QuadratureSpec()


def _check_shift(a: float) -> float:
    a = float(a)
    if not (0.0 < a < 1.0):
        raise ValueError(f"shift a must lie in (0, 1), got {a!r}")
    return a


def _em_terms(n: int, y: float) -> tuple[list[float], float]:
    """Euler-Maclaurin terms of sum_{k>=K} (k+x)^-(n+1) at y = K + x.

    Returns B_2j/(2j)! (n+1)_(2j-1) y^-(n+2j) for j = 1..4, the terms that
    follow the integral and half the first summand in DLMF 2.10.1, and a
    bound on what they leave out.  With f(u) = (u+x)^-(n+1) the remainder is
    -int_K^inf B~_8(u)/8! f^(8)(u) du; f^(8) has one sign and |B~_8| <=
    |B_8|, so it is at most |B_8|/8! |f^(7)(K)| = 2 zeta(8)/(2 pi)^8
    (n+1)_7 y^-(n+8).  Powers past y^-n are built by multiplication, which
    never raises on underflow.
    """
    inv2 = 1.0 / (y * y)
    power = y ** -float(n) * inv2
    rising = float(n + 1)
    terms = []
    for j, coefficient in enumerate(_EM_COEFFICIENTS):
        if j:
            rising *= (n + 2 * j) * (n + 2 * j + 1)
            power *= inv2
        terms.append(coefficient * rising * power)
    return terms, _EM_REMAINDER * rising * power


def _fsum_series(
    term: Callable[[np.ndarray], np.ndarray], first: int, count: int, tail: list[float]
) -> float:
    """math.fsum of term(k) for k = first..count-1 and of tail, one exact rounding.

    The terms are formed _SERIES_CHUNK at a time, so a long sum never holds
    more than one chunk of them.
    """
    chunks = (
        term(np.arange(lo, min(lo + _SERIES_CHUNK, count), dtype=float)).tolist()
        for lo in range(first, count, _SERIES_CHUNK)
    )
    return math.fsum(itertools.chain(itertools.chain.from_iterable(chunks), tail))


def polygamma_series(n: int, x: float, spec: SeriesSpec = _DEFAULT_SERIES) -> EvalResult:
    """psi_n(x) for n >= 1 via (-1)^(n+1) n! sum_k (k+x)^-(n+1).

    The first K = spec.max_terms terms are summed exactly rounded
    (math.fsum); the tail sum_{k>=K} is closed at y = K + x by its
    Euler-Maclaurin expansion y^-n/n + y^-(n+1)/2 + sum_{j<=4} B_2j/(2j)!
    (n+1)_(2j-1) y^-(n+2j), whose remainder bound (see _em_terms), times
    n!, is the truncation part of the error bar.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"polygamma_series requires n >= 1, got {n}")
    x = _check_x(x)
    y = spec.max_terms + x
    head = y ** -float(n)
    tail, rem = _em_terms(n, y)
    total = _fsum_series(
        lambda k: (k + x) ** (-(n + 1.0)), 0, spec.max_terms, [head / n, 0.5 * head / y] + tail
    )
    fact = float(math.factorial(n))
    mag = fact * total
    sign = 1.0 if n % 2 == 1 else -1.0
    return EvalResult(sign * mag, fact * rem + 32.0 * _EPS * mag)


def digamma_series(x: float, spec: SeriesSpec = _DEFAULT_SERIES) -> EvalResult:
    """psi(x) via -gamma - 1/x + sum_{k>=1} x/(k(k+x)).

    The terms k < K = spec.max_terms are summed exactly rounded; the tail is
    the Euler-Maclaurin expansion of 1/u - 1/(u+x) from u = K: log1p(x/K)
    + (1/K - 1/y)/2 + sum_{j<=4} B_2j/(2j) (K^-2j - y^-2j) with y = K + x,
    and its remainder is bounded by that of 1/u alone, 2 zeta(8)/(2 pi)^8
    7! K^-8.
    """
    x = _check_x(x)
    big_k = float(spec.max_terms)
    y = big_k + x
    near, rem = _em_terms(0, big_k)
    far, _ = _em_terms(0, y)
    tail = [math.log1p(x / big_k), 0.5 / big_k, -0.5 / y] + near + [-t for t in far]
    series = _fsum_series(lambda k: x / (k * (k + x)), 1, spec.max_terms, tail)
    value = math.fsum((-GAMMA_EULER, series, -1.0 / x))
    budget = GAMMA_EULER + series + 1.0 / x
    return EvalResult(value, rem + 32.0 * _EPS * budget)


def _t_over_one_minus_exp(t: np.ndarray) -> np.ndarray:
    """t / (1 - e^-t) elementwise; Taylor below t = 1e-3 kills the 0/0 form."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    small = t < _SMALL_T
    ts = t[small]
    out[small] = 1.0 + ts * (0.5 + ts / 12.0) - ts**4 / 720.0
    tb = t[~small]
    out[~small] = tb / (-np.expm1(-tb))
    return out


def _ratio_difference(a: float, t: np.ndarray) -> np.ndarray:
    """r(t) - r(at) for r(t) = t/(1-e^-t), safe against cancellation.

    Below t = 0.05 the direct difference of two near-one quantities is
    replaced by its series (1-a)t/2 + (1-a^2)t^2/12 - (1-a^4)t^4/720
    + (1-a^6)t^6/30240, whose next term is below 1e-16 there.
    """
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    small = t < _SMALL_T_DIFF
    ts = t[small]
    a2 = a * a
    a4 = a2 * a2
    a6 = a4 * a2
    out[small] = (
        ts * (1.0 - a) / 2.0
        + ts**2 * (1.0 - a2) / 12.0
        - ts**4 * (1.0 - a4) / 720.0
        + ts**6 * (1.0 - a6) / 30240.0
    )
    tb = t[~small]
    out[~small] = _t_over_one_minus_exp(tb) - _t_over_one_minus_exp(a * tb)
    return out


def cm_weight(a: float, t):
    """(1 - e^-at)/(1 - e^-t) - a, the positivity weight of the even-order gap.

    Written as a * (r(t) - r(at)) / r(at) with r(t) = t/(1-e^-t) so that the
    value stays fully accurate as t -> 0, where the plain difference of two
    quotients loses every digit.  Accepts scalars or arrays; maps t = 0 to 0.
    """
    a = _check_shift(a)
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("t must be >= 0")
    w = a * _ratio_difference(a, arr) / _t_over_one_minus_exp(a * arr)
    if np.ndim(t) == 0:
        return float(w)
    return w


def _panel(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float) -> tuple[float, float]:
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    hi_est = h * float(np.dot(_WEIGHTS_HI, f(c + h * _NODES_HI)))
    lo_est = h * float(np.dot(_WEIGHTS_LO, f(c + h * _NODES_LO)))
    return hi_est, abs(hi_est - lo_est)


def _integrate(
    f: Callable[[np.ndarray], np.ndarray],
    upper: float,
    rel_tol: float,
    max_subdivisions: int,
) -> tuple[float, float]:
    """Adaptive bisection of int_0^upper f, worst panel first.

    Starts from a geometric partition 0, 1, 2, 4, ... so the initial panels
    already track the scale of a decaying integrand, then repeatedly splits
    the panel with the largest 15-vs-7-point discrepancy until the summed
    discrepancies drop under rel_tol * |integral|.
    """
    edges = [0.0]
    step = min(1.0, upper)
    while step < upper:
        edges.append(step)
        step *= 2.0
    edges.append(upper)
    total_v = 0.0
    total_e = 0.0
    heap: list[tuple[float, int, float, float, float, float]] = []
    seq = 0
    for lo, hi in zip(edges, edges[1:]):
        v, e = _panel(f, lo, hi)
        total_v += v
        total_e += e
        heapq.heappush(heap, (-e, seq, lo, hi, v, e))
        seq += 1
    splits = 0
    while total_e > rel_tol * abs(total_v):
        if splits >= max_subdivisions:
            raise QuadratureError(
                f"needed more than {max_subdivisions} subdivisions for rel_tol={rel_tol}"
            )
        _, _, lo, hi, v, e = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1 = _panel(f, lo, mid)
        v2, e2 = _panel(f, mid, hi)
        total_v += v1 + v2 - v
        total_e += e1 + e2 - e
        heapq.heappush(heap, (-e1, seq, lo, mid, v1, e1))
        seq += 1
        heapq.heappush(heap, (-e2, seq, mid, hi, v2, e2))
        seq += 1
        splits += 1
    return total_v, total_e


def _auto_cutoff(f: Callable[[np.ndarray], np.ndarray], x: float) -> float:
    """Double T from 30/x until |f(T)| < 1e-18."""
    t = 30.0 / x
    for _ in range(200):
        if abs(float(f(np.array([t]))[0])) < _TINY_INTEGRAND:
            return t
        t *= 2.0
    raise QuadratureError("no finite truncation point found; integrand does not decay")


def _exp_poly_tail(m: int, x: float, upper: float) -> float:
    """Exact value of int_upper^inf t^m e^(-xt) dt, used as a tail bound.

    Equals (m!/x^(m+1)) e^-s sum_{j<=m} s^j/j! with s = x*upper.  For s past
    600 the direct sum is replaced by its largest-term bound (m+1) s^m / m!,
    valid once s >= m, which every auto-chosen cutoff satisfies.
    """
    s = x * upper
    if s < 600.0:
        acc = 1.0
        term = 1.0
        for j in range(1, m + 1):
            term *= s / j
            acc += term
        ln_sum = math.log(acc)
    else:
        ln_sum = math.log(m + 1.0) + m * math.log(s) - math.lgamma(m + 1.0)
    ln_tail = math.lgamma(m + 1.0) - (m + 1.0) * math.log(x) - s + ln_sum
    if ln_tail > 700.0:
        return math.inf
    return math.exp(ln_tail)


def _run_integral(
    f: Callable[[np.ndarray], np.ndarray],
    x_rate: float,
    spec: QuadratureSpec,
) -> tuple[float, float, float]:
    """Returns (value, quadrature error, cutoff T)."""
    upper = spec.upper_cutoff if spec.upper_cutoff is not None else _auto_cutoff(f, x_rate)
    v, e = _integrate(f, upper, spec.rel_tol, spec.max_subdivisions)
    return v, e, upper


def polygamma_integral(n: int, x: float, spec: QuadratureSpec = _DEFAULT_QUAD) -> EvalResult:
    """psi_n(x) from its integral form.

    n = 0:  psi(x) = -gamma + int_0^inf (e^-t - e^-xt)/(1 - e^-t) dt
    n >= 1: psi_n(x) = (-1)^(n+1) int_0^inf t^n e^-xt/(1 - e^-t) dt

    The reported error is the summed panel discrepancy plus the exact bound
    on the dropped tail, so doubling the cutoff moves the value by less than
    the bar.
    """
    n = _check_order(n)
    x = _check_x(x)
    if n == 0:

        def f(t: np.ndarray) -> np.ndarray:
            t = np.asarray(t, dtype=float)
            num = np.expm1(-t) - np.expm1(-x * t)
            return num / t * _t_over_one_minus_exp(t)

        rate = min(1.0, x)
        v, e, upper = _run_integral(f, x, spec)
        tail = _exp_poly_tail(0, rate, upper) / (-math.expm1(-upper))
        return EvalResult(-GAMMA_EULER + v, e + tail)

    def f(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        z = -x * t if n == 1 else (n - 1) * np.log(t) - x * t
        return np.exp(z) * _t_over_one_minus_exp(t)

    v, e, upper = _run_integral(f, x, spec)
    tail = _exp_poly_tail(n, x, upper) / (-math.expm1(-upper))
    sign = 1.0 if n % 2 == 1 else -1.0
    return EvalResult(sign * v, e + tail)


def power_integral(n: int, x: float, spec: QuadratureSpec = _DEFAULT_QUAD) -> EvalResult:
    """n!/x^(n+1) via int_0^inf t^n e^-xt dt, for checking the gap's last term."""
    n = _check_order(n)
    x = _check_x(x)

    def f(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        z = -x * t if n == 0 else n * np.log(t) - x * t
        return np.exp(z)

    v, e, upper = _run_integral(f, x, spec)
    return EvalResult(v, e + _exp_poly_tail(n, x, upper))


def _gap_integral(
    a: float, power: int, x: float, offset: float, spec: QuadratureSpec
) -> tuple[float, float, float]:
    def f(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        w = a * _ratio_difference(a, t) / _t_over_one_minus_exp(a * t) + offset
        z = -x * t if power == 0 else power * np.log(t) - x * t
        return w * np.exp(z)

    return _run_integral(f, x, spec)


def gap_integral_even(
    a: float, power: int, x: float, spec: QuadratureSpec = _DEFAULT_QUAD
) -> EvalResult:
    """int_0^inf [ (1-e^-at)/(1-e^-t) - a ] t^power e^-xt dt.

    This is the n-th sign-adjusted derivative of the even-order shift gap
    when power = k + n; the integrand is strictly positive, which is the
    whole content of the complete-monotonicity claim being checked.
    """
    a = _check_shift(a)
    power = operator.index(power)
    if power < 0:
        raise ValueError(f"power must be >= 0, got {power}")
    x = _check_x(x)
    v, e, upper = _gap_integral(a, power, x, 0.0, spec)
    tail = (1.0 - a) * _exp_poly_tail(power, x, upper)
    return EvalResult(v, e + tail)


def gap_integral_odd(
    a: float, power: int, x: float, spec: QuadratureSpec = _DEFAULT_QUAD
) -> EvalResult:
    """int_0^inf [ a + (1-e^-at)/(1-e^-t) ] t^power e^-xt dt.

    Same role as gap_integral_even but for the negated odd-order gap; the
    bracket equals the even one plus 2a.
    """
    a = _check_shift(a)
    power = operator.index(power)
    if power < 0:
        raise ValueError(f"power must be >= 0, got {power}")
    x = _check_x(x)
    v, e, upper = _gap_integral(a, power, x, 2.0 * a, spec)
    tail = (1.0 + a) * _exp_poly_tail(power, x, upper)
    return EvalResult(v, e + tail)
