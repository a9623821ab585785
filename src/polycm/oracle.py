"""Deliberately simple evaluators used to cross-check the fast engine.

Series forms sum their first max_terms terms with one exactly rounded
math.fsum and close the rest with an Euler-Maclaurin tail whose remainder
bound (DLMF 2.10.1, with |B~_8| <= |B_8|) becomes the error bar.
Integral forms use adaptive bisection with a 15-point Gauss-Legendre rule
per panel and a 7-point companion rule for the panel error estimate; the
truncated upper tail is covered by an exact closed-form bound, so the
reported error is sound, not heuristic.  Bisection runs in rounds: each
round splits every panel whose discrepancy exceeds its equal share of the
tolerance, and the integrand is called once per round on the nodes of both
rules of all its panels.  Each panel estimate is a sequential sum in node
order and the totals are math.fsum over the panels, so no result depends
on a BLAS kernel, a SIMD summation order or the order of the panels.

Nothing here shares evaluation code with the engine; only Euler's
constant, the argument checks, the overflow check on results and the
machine epsilon are common.  Simple and transparent on purpose.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constants import GAMMA_EULER
from .polygamma import _EPS, EvalResult, _check_order, _check_shift, _check_x, _result

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
#: Both node sets of one panel and their weights, evaluated together by _panels.
_NODES = np.concatenate((_NODES_HI, _NODES_LO))
_WEIGHTS = np.concatenate((_WEIGHTS_HI, _WEIGHTS_LO))
_HI_COUNT = _NODES_HI.size
#: The cutoff search's candidates 30/x * 2^j for j < 200 (as multipliers of
#: 30/x), probed _PROBES_PER_CALL per integrand call.
_DOUBLINGS = 2.0 ** np.arange(200)
_PROBES_PER_CALL = 8


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
        object.__setattr__(self, "max_subdivisions", operator.index(self.max_subdivisions))
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
    more than one chunk of them.  A term that overflows does so silently, as
    in _run_integral.
    """
    chunks = (
        term(np.arange(lo, min(lo + _SERIES_CHUNK, count), dtype=float)).tolist()
        for lo in range(first, count, _SERIES_CHUNK)
    )
    with np.errstate(over="ignore"):
        return math.fsum(itertools.chain(itertools.chain.from_iterable(chunks), tail))


def polygamma_series(n: int, x: float, spec: SeriesSpec = _DEFAULT_SERIES) -> EvalResult:
    """psi_n(x) for n >= 1 via (-1)^(n+1) n! sum_k (k+x)^-(n+1).

    The first K = spec.max_terms terms are summed exactly rounded
    (math.fsum); the tail sum_{k>=K} is closed at y = K + x by its
    Euler-Maclaurin expansion y^-n/n + y^-(n+1)/2 + sum_{j<=4} B_2j/(2j)!
    (n+1)_(2j-1) y^-(n+2j), whose remainder bound (see _em_terms), times
    n!, is the truncation part of the error bar.
    """
    n = _check_order(n)
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
    return _result(sign * mag, fact * rem + 32.0 * _EPS * mag)


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
    return _result(value, rem + 32.0 * _EPS * budget)


def _t_over_one_minus_exp(t: np.ndarray) -> np.ndarray:
    """t / (1 - e^-t) elementwise; Taylor below t = 1e-3 kills the 0/0 form.

    The plain quotient is formed wherever t >= 1e-3 and only the few small
    t are patched.
    """
    t = np.asarray(t, dtype=float)
    big = t >= _SMALL_T
    out = np.divide(t, -np.expm1(-t), out=np.empty_like(t), where=big)
    small = ~big
    if small.any():
        ts = t[small]
        out[small] = 1.0 + ts * (0.5 + ts / 12.0) - ts**4 / 720.0
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


def _weight(a: float, t: np.ndarray) -> np.ndarray:
    """cm_weight for a checked a and an array t >= 0."""
    return a * _ratio_difference(a, t) / _t_over_one_minus_exp(a * t)


def _power_exp(m: int, x: float, t: np.ndarray) -> np.ndarray:
    """t^m e^(-xt) on t > 0, formed as exp(m ln t - xt) so no inf * 0 can appear."""
    z = -x * t if m == 0 else m * np.log(t) - x * t
    return np.exp(z)


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
    w = _weight(a, arr)
    if np.ndim(t) == 0:
        return float(w)
    return w


def _panels(
    f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(15-point estimates, |15-point - 7-point|) of the panels [lo[i], hi[i]].

    f runs once, on the 22 nodes of every panel side by side.  Each estimate
    is h times a sequential sum of weight * value in node order
    (np.add.accumulate), so its bits depend on no BLAS kernel.
    """
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    terms = f((c[:, None] + h[:, None] * _NODES).ravel()).reshape(-1, _NODES.size) * _WEIGHTS
    hi_est = h * np.add.accumulate(terms[:, :_HI_COUNT], axis=1)[:, -1]
    lo_est = h * np.add.accumulate(terms[:, _HI_COUNT:], axis=1)[:, -1]
    return hi_est, np.abs(hi_est - lo_est)


def _fsum(values: np.ndarray) -> float:
    """math.fsum of an array; nan where finite values sum past binary64, so
    that _result reports it as any other overflow."""
    try:
        return math.fsum(values.tolist())
    except OverflowError:
        return math.nan


def _integrate(
    f: Callable[[np.ndarray], np.ndarray],
    upper: float,
    rel_tol: float,
    max_subdivisions: int,
) -> tuple[float, float]:
    """Adaptive bisection of int_0^upper f in rounds; returns (value, error).

    Starts from a geometric partition 0, 1, 2, 4, ... so the initial panels
    already track the scale of a decaying integrand.  While the summed
    15-vs-7-point discrepancies exceed rel_tol * |integral|, a round splits
    every panel whose discrepancy exceeds its equal share of that allowance,
    rel_tol * |integral| / panels, and the worst panel in any case, so that
    every round makes progress; all halves of a round go through one
    integrand call.  Both totals are math.fsum over the panels, correctly
    rounded and independent of panel order.  max_subdivisions caps the
    number of panels split, over all rounds.
    """
    edges = [0.0]
    step = min(1.0, upper)
    while step < upper:
        edges.append(step)
        step *= 2.0
    edges.append(upper)
    lo = np.array(edges[:-1])
    hi = np.array(edges[1:])
    v, e = _panels(f, lo, hi)
    splits = 0
    while True:
        total_v = _fsum(v)
        total_e = _fsum(e)
        allowance = rel_tol * abs(total_v)
        if not total_e > allowance:
            return total_v, total_e
        split = (e > allowance / e.size) | (e == e.max())
        splits += int(np.count_nonzero(split))
        if splits > max_subdivisions:
            raise QuadratureError(
                f"needed more than {max_subdivisions} subdivisions for rel_tol={rel_tol}"
            )
        keep = ~split
        left = lo[split]
        right = hi[split]
        mid = 0.5 * (left + right)
        new_lo = np.concatenate((left, mid))
        new_hi = np.concatenate((mid, right))
        new_v, new_e = _panels(f, new_lo, new_hi)
        lo = np.concatenate((lo[keep], new_lo))
        hi = np.concatenate((hi[keep], new_hi))
        v = np.concatenate((v[keep], new_v))
        e = np.concatenate((e[keep], new_e))


def _auto_cutoff(
    f: Callable[[np.ndarray], np.ndarray], x: float, power: int, lead: float
) -> float:
    """The first T = 30/x * 2^j, j < 200, with |f(T)| < 1e-18.

    The candidates are probed eight per integrand call.  Scaling by a power
    of two is exact, so they are the points repeated doubling of 30/x
    reaches; those past the binary64 range are never evaluated.  The
    integral is about lead * power!/x^(power+1) at small x: when 30/x itself
    is inf, that is inf too (OverflowError) unless power is 0 and lead/x is
    finite, and then the cutoff is unreachable (QuadratureError).
    """
    start = 30.0 / x
    if start == math.inf:
        if power > 0 or lead / x == math.inf:
            raise OverflowError(
                f"result left the binary64 range: the integral grows like "
                f"x^-{power + 1} and x = {x!r}"
            )
        raise QuadratureError(f"the truncation point 30/x is not finite for x = {x!r}")
    ladder = start * _DOUBLINGS
    ladder = ladder[ladder < math.inf]
    for i in range(0, ladder.size, _PROBES_PER_CALL):
        probes = ladder[i:i + _PROBES_PER_CALL]
        below = np.abs(f(probes)) < _TINY_INTEGRAND
        if below.any():
            return float(probes[below.argmax()])
    raise QuadratureError(
        f"no truncation point up to T = {float(ladder[-1])!r}: the integrand does not decay"
    )


def _exp_poly_tail(m: int, x: float, upper: float) -> float:
    """Exact value of int_upper^inf t^m e^(-xt) dt, used as a tail bound.

    Equals (m!/x^(m+1)) e^-s sum_{j<=m} s^j/j! with s = x*upper.  For s past
    600 the direct sum is replaced by its largest-term bound (m+1) s^m / m!,
    valid once s >= m.  Every caller checks m <= 40 < 600, so that holds for
    any cutoff, a user's upper_cutoff included.
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
    x: float,
    spec: QuadratureSpec,
    power: int,
    lead: float = 1.0,
) -> tuple[float, float, float]:
    """Returns (value, quadrature error, cutoff T) of an integral that is
    about lead * power!/x^(power+1) at small x (see _auto_cutoff).

    An integrand that overflows does so silently and leaves the value or
    error non-finite (inf, or nan from inf - inf), which the caller's
    _result turns into OverflowError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        upper = spec.upper_cutoff
        if upper is None:
            upper = _auto_cutoff(f, x, power, lead)
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
            num = np.expm1(-t) - np.expm1(-x * t)
            return num / t * _t_over_one_minus_exp(t)

        rate = min(1.0, x)
        v, e, upper = _run_integral(f, x, spec, 0)
        tail = _exp_poly_tail(0, rate, upper) / (-math.expm1(-upper))
        return _result(-GAMMA_EULER + v, e + tail)

    def f(t: np.ndarray) -> np.ndarray:
        return _power_exp(n, x, t) / -np.expm1(-t)

    v, e, upper = _run_integral(f, x, spec, n)
    tail = _exp_poly_tail(n, x, upper) / (-math.expm1(-upper))
    sign = 1.0 if n % 2 == 1 else -1.0
    return _result(sign * v, e + tail)


def power_integral(n: int, x: float, spec: QuadratureSpec = _DEFAULT_QUAD) -> EvalResult:
    """n!/x^(n+1) via int_0^inf t^n e^-xt dt, for checking the gap's last term."""
    n = _check_order(n)
    x = _check_x(x)

    v, e, upper = _run_integral(lambda t: _power_exp(n, x, t), x, spec, n)
    return _result(v, e + _exp_poly_tail(n, x, upper))


def _gap_integral(
    a: float, power: int, x: float, offset: float, spec: QuadratureSpec
) -> tuple[float, float, float]:
    def f(t: np.ndarray) -> np.ndarray:
        return (_weight(a, t) + offset) * _power_exp(power, x, t)

    # the bracket tends to 1 - a + offset at large t
    return _run_integral(f, x, spec, power, 1.0 - a + offset)


def gap_integral_even(
    a: float, power: int, x: float, spec: QuadratureSpec = _DEFAULT_QUAD
) -> EvalResult:
    """int_0^inf [ (1-e^-at)/(1-e^-t) - a ] t^power e^-xt dt.

    This is the n-th sign-adjusted derivative of the even-order shift gap
    when power = k + n; the integrand is strictly positive, which is the
    whole content of the complete-monotonicity claim being checked.  power
    is capped at 40 like every derivative order.
    """
    a = _check_shift(a)
    power = _check_order(power)
    x = _check_x(x)
    v, e, upper = _gap_integral(a, power, x, 0.0, spec)
    tail = (1.0 - a) * _exp_poly_tail(power, x, upper)
    return _result(v, e + tail)


def gap_integral_odd(
    a: float, power: int, x: float, spec: QuadratureSpec = _DEFAULT_QUAD
) -> EvalResult:
    """int_0^inf [ a + (1-e^-at)/(1-e^-t) ] t^power e^-xt dt.

    Same role as gap_integral_even but for the negated odd-order gap; the
    bracket equals the even one plus 2a.
    """
    a = _check_shift(a)
    power = _check_order(power)
    x = _check_x(x)
    v, e, upper = _gap_integral(a, power, x, 2.0 * a, spec)
    tail = (1.0 + a) * _exp_poly_tail(power, x, upper)
    return _result(v, e + tail)
