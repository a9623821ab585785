"""Deliberately simple evaluators used to cross-check the fast engine.

Series forms sum their first max_terms terms with one exactly rounded
math.fsum, which reads the numpy arrays of terms, formed 65,536 at a time,
through memoryviews, and close the rest with an Euler-Maclaurin tail whose
remainder bound (DLMF 2.10.1, with |B~_8| <= |B_8|) becomes the error bar.
Integral forms use adaptive bisection with a 15-point Gauss-Legendre rule
per panel and a 7-point companion rule for the panel error estimate, both
held as literal tables, so polycm neither imports numpy.polynomial nor
calls LAPACK for them (numpy 1.x still imports numpy.polynomial itself).
The reported error has three parts: the truncated upper tail's, the exact
integral past the cutoff T (DLMF 8.4.8) of a closed-form envelope of the
integrand, which also picks T (see _auto_cutoff); the panels', |G15 - G7|
summed over the panels, which is an estimate and not a proven bound (a
bound of Bernstein-ellipse type would make it one); and a rounding floor,
64 eps |integral|, for what the discrepancy stops seeing once the panels
converge: the 15-point weights' table error, the fixed-order sums and the
integrand's own rounding (see _ROUNDING_FLOOR).  Where a route rounds
apart from its integral, its bar says so too: the even gap's bracket is a
difference of two terms of size a, and psi at n = 0 adds the rounded
-gamma.  Bisection starts from a
partition on the integrand's own scale (see _integrate) and runs in
rounds: each round splits every panel whose discrepancy exceeds its equal
share of the tolerance, and the integrand is called once per round on the
nodes of both rules of all its panels.  Each panel estimate is a
sequential sum in node order and the totals are math.fsum over the
panels, so no result depends on a BLAS kernel, a SIMD summation order or
the order of the panels.  The rounds therefore keep their panels in
Python lists, in whatever order splitting in place leaves them; only the
integrand calls use arrays.  The terms and integrands themselves do
depend on numpy's CPU dispatch: the
series' powers and the integrands' exp, expm1 and log come from numpy's
SIMD loops, which can differ from libm's by an ulp.  On the crosscheck
draws of seed 1 the 164 series results and the 164 quadrature results
hash differently with numpy's AVX-512 dispatch off, while the engine's,
which are libm's, do not.  The cutoff is libm's, so it does not follow
that dispatch.

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
from .polygamma import _EPS, EvalResult, _as_float, _check_order, _check_shift, _check_x, _result

_TINY_INTEGRAND = 1e-18
_SERIES_CHUNK = 65536  # series terms formed per numpy call
_SMALL_T = 1e-3        # switch to the Taylor form of t/(1-e^-t)
_SMALL_T_DIFF = 0.05   # switch to the series form of r(t) - r(at)

# B_2j/(2j)! for j = 1..4 (DLMF 24.2.1), written out here so the oracle
# shares no table with the engine
_EM_COEFFICIENTS = (1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0, -1.0 / 1209600.0)
# 2 zeta(8)/(2 pi)^8 = |B_8|/8! = 8.27e-7, rounded up
_EM_REMAINDER = 8.4e-7

#: The 15- and 7-point Gauss-Legendre rules on [-1, 1], written out: bit for
#: bit what numpy 2.4.6's leggauss(15) and leggauss(7) return, so polycm
#: neither imports numpy.polynomial nor calls LAPACK for them (numpy 1.x
#: imports numpy.polynomial along with numpy) and the oracle's bits depend
#: on no LAPACK build.  They are not correctly rounded: the 15-point
#: weights are up to 37.7 ulp off and the nodes up to 0.66 ulp.  Rounding
#: them correctly would move the oracle's bits, so it is a change of its own.
_NODES_HI = np.array([
    -0.9879925180204854, -0.9372733924007058, -0.8482065834104272,
    -0.7244177313601701, -0.5709721726085388, -0.3941513470775634,
    -0.20119409399743451, 0.0, 0.20119409399743451,
    0.3941513470775634, 0.5709721726085388, 0.7244177313601701,
    0.8482065834104272, 0.9372733924007058, 0.9879925180204854,
])
_WEIGHTS_HI = np.array([
    0.030753241996117203, 0.0703660474881084, 0.10715922046717141,
    0.13957067792615444, 0.16626920581699398, 0.1861610000155622,
    0.1984314853271116, 0.2025782419255613, 0.1984314853271116,
    0.1861610000155622, 0.16626920581699398, 0.13957067792615444,
    0.10715922046717141, 0.0703660474881084, 0.030753241996117203,
])
_NODES_LO = np.array([
    -0.9491079123427586, -0.7415311855993945, -0.4058451513773972, 0.0,
    0.4058451513773972, 0.7415311855993945, 0.9491079123427586,
])
_WEIGHTS_LO = np.array([
    0.12948496616886973, 0.27970539148927687, 0.3818300505051187, 0.4179591836734693,
    0.3818300505051187, 0.27970539148927687, 0.12948496616886973,
])
#: Both node sets of one panel and their weights as columns, one row per
#: node, evaluated together by _panels.
_NODES = np.concatenate((_NODES_HI, _NODES_LO))[:, None]
_WEIGHTS = np.concatenate((_WEIGHTS_HI, _WEIGHTS_LO))[:, None]
_HI_COUNT = _NODES_HI.size
_REL_TOL = 1e-10            # target of discrepancy / |integral|
_MAX_SUBDIVISIONS = 4000    # panels one quadrature may split, over all rounds
#: _integrate's first partition holds the points upper * 2^(-j/2), j = 1..8,
#: formed by repeated multiplication by this binary64 literal, with no **,
#: so that they are the same points on every host.
_LADDER_RATIO = 0.7071067811865476
_LADDER_POINTS = 8
#: The rounding floor, _ROUNDING_FLOOR * eps * |integral|, covers what
#: |G15 - G7| cannot see once the panels converge.  Every oracle integrand
#: keeps one sign on (0, inf), so the sum of |h w f| over all nodes is
#: |integral|, and each source is a multiple of eps times it: the 15-point
#: weights' table error, up to 37.7 ulp, so 37.7 eps |w|; the sequential
#: 15-term sum with its products and the factor h, 16 roundings of half an
#: ulp, 8 eps; the integrand's own rounding, a handful of operations (exp,
#: expm1, log, a quotient, a product) of about an ulp each, 8 eps; and
#: math.fsum's one rounding over the panels.  They sum to about 54, which
#: rounds up to the next power of two.
_ROUNDING_FLOOR = 64.0


class QuadratureError(RuntimeError):
    """Raised when the subdivision budget runs out before the tolerance is met."""


@dataclass(frozen=True)
class SeriesSpec:
    """Controls for the direct summation oracles.

    max_terms is the count K of terms summed before the Euler-Maclaurin
    tail takes over at K + x.  Its default, 256, is the least power of two
    at which the remainder part of every series bar is at most 2^-24 of
    that bar for n <= 40 and x in [1e-3, 1e6]: n! rem from
    _em_terms(n, K + x) for polygamma_series, rem from _em_terms(0, K) for
    digamma_series.  The worst case, 3.2e-8 of the bar, is at n = 40,
    x ~ 1283; at K = 128 it is 8.2e-6.  From the minimum of 100 terms on
    the remainder stays below the bar's 32 eps rounding floor.  The terms
    are formed 65,536 at a time, so memory does not grow with max_terms.
    """

    max_terms: int = 256

    def __post_init__(self) -> None:
        object.__setattr__(self, "max_terms", operator.index(self.max_terms))
        if self.max_terms < 100:
            raise ValueError(f"max_terms must be >= 100, got {self.max_terms}")


_DEFAULT_SERIES = SeriesSpec()


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

    The terms are formed _SERIES_CHUNK at a time, and math.fsum reads each
    chunk through a memoryview, so no list of Python floats is built and
    memory does not grow with count; fsum rounds once over its whole input,
    so the chunks move no bit.  A term that overflows does so silently, as
    in _run_integral.
    """
    chunks = (memoryview(term(np.arange(lo, min(lo + _SERIES_CHUNK, count), dtype=float)))
              for lo in range(first, count, _SERIES_CHUNK))
    # each chunk is formed when fsum reaches it, so one is held at a time
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
    big = t >= _SMALL_T
    out = np.divide(t, -np.expm1(-t), out=np.empty_like(t), where=big)
    small = ~big
    if small.any():
        ts = t[small]
        out[small] = 1.0 + ts * (0.5 + ts / 12.0) - ts**4 / 720.0
    return out


def _ratio_difference(a: float, t: np.ndarray) -> np.ndarray:
    """r(t) - r(at) for r(t) = t/(1-e^-t), safe against cancellation.

    Below t = 0.05, where the direct difference subtracts two near-one
    quantities, it is replaced by its series
    (1-a)t/2 + (1-a^2)t^2/12 - (1-a^4)t^4/720 + (1-a^6)t^6/30240, whose
    next term is below 1e-16 there.  The direct difference is formed on the
    other t only.
    """
    small = t < _SMALL_T_DIFF
    out = np.empty_like(t)
    big = ~small
    tb = t[big]
    out[big] = _t_over_one_minus_exp(tb) - _t_over_one_minus_exp(a * tb)
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
    Every t must be finite and >= 0: nan and inf raise ValueError.
    """
    a = _check_shift(a)
    scalar = np.ndim(t) == 0
    if scalar:
        t = _as_float(t)
    try:
        arr = np.asarray(t, dtype=float)
    except OverflowError:
        # a sequence holding an int beyond binary64: rejected as its inf is
        arr = np.array(math.inf)
    # nan fails both comparisons, so it is rejected along with -inf and inf
    if not np.all((arr >= 0.0) & (arr < math.inf)):
        raise ValueError(f"t must be finite and >= 0, got {t!r}")
    w = _weight(a, arr)
    return float(w) if scalar else w


def _panels(
    f: Callable[[np.ndarray], np.ndarray], lo: list[float], hi: list[float]
) -> tuple[list[float], list[float]]:
    """(15-point estimates, |15-point - 7-point|) of the panels [lo[i], hi[i]].

    f runs once, on the 22 nodes of every panel: row j of its argument holds
    node j of each panel.  Each estimate is h times a sequential sum of
    weight * value in node order (np.add.accumulate down the rows), so its
    bits depend on no BLAS kernel.
    """
    lo = np.array(lo)
    hi = np.array(hi)
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    terms = f((_NODES * h + c).ravel()).reshape(_NODES.size, -1) * _WEIGHTS
    hi_est = h * np.add.accumulate(terms[:_HI_COUNT])[-1]
    lo_est = h * np.add.accumulate(terms[_HI_COUNT:])[-1]
    return hi_est.tolist(), np.abs(hi_est - lo_est).tolist()


def _fsum(values: list[float]) -> float:
    """math.fsum of the panels' floats, whatever their order; nan where
    finite values sum past binary64, so that _result reports it as any other
    overflow."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.nan


def _integrate(f: Callable[[np.ndarray], np.ndarray], upper: float) -> tuple[float, float]:
    """Adaptive bisection of int_0^upper f in rounds; returns (value, error).

    Starts from the doublings 1, 2, 4, ... below the cutoff and the ladder
    upper * 2^(-j/2), j = 1..8, which splits [upper/16, upper] into panels
    a factor sqrt(2) wide.  The integrand's mass, near n/x for t^n e^-xt,
    and its decay over the tens of e-folds before the cutoff mostly fall in
    that range, where the doublings alone leave panels a factor 2 wide.  On
    the crosscheck benchmark's draws three integrals in four then meet the
    tolerance in the first integrand call: 1.4 calls per integral, against
    3.3 from the doublings alone.  While the summed
    15-vs-7-point discrepancies exceed _REL_TOL * |integral|, a round splits
    every panel whose discrepancy exceeds its equal share of that allowance,
    _REL_TOL * |integral| / panels, and the worst panel in any case, so that
    every round makes progress; all halves of a round go through one
    integrand call.  Both totals are math.fsum over the panels, correctly
    rounded and independent of panel order.  _MAX_SUBDIVISIONS caps the
    number of panels split, over all rounds.  The returned error adds the
    rounding floor, _ROUNDING_FLOOR * eps * |integral|, to the summed
    discrepancies.

    The panels live in four Python lists (lo, hi, estimate, discrepancy)
    across rounds, a few dozen floats that lists handle faster than arrays:
    a split panel's left half takes its place and its right half is
    appended.  That reorders the panels, which neither the totals nor the
    split rule, a function of the set of panels only, can see.
    """
    starts = {0.0}
    step = min(1.0, upper)
    while step < upper:
        starts.add(step)
        step *= 2.0
    step = upper
    for _ in range(_LADDER_POINTS):
        step *= _LADDER_RATIO
        starts.add(step)
    lo = sorted(starts)
    hi = lo[1:] + [upper]
    v, e = _panels(f, lo, hi)
    splits = 0
    while True:
        total_v = _fsum(v)
        total_e = _fsum(e)
        allowance = _REL_TOL * abs(total_v)
        if not total_e > allowance:
            return total_v, total_e + _ROUNDING_FLOOR * _EPS * abs(total_v)
        # no discrepancy is nan here, since one would have made total_e nan
        share = allowance / len(e)
        worst = max(e)
        split = [i for i, d in enumerate(e) if d > share or d == worst]
        splits += len(split)
        if splits > _MAX_SUBDIVISIONS:
            raise QuadratureError(
                f"needed more than {_MAX_SUBDIVISIONS} subdivisions for rel_tol={_REL_TOL}"
            )
        left = [lo[i] for i in split]
        right = [hi[i] for i in split]
        mid = [0.5 * (a + b) for a, b in zip(left, right)]
        new_v, new_e = _panels(f, left + mid, mid + right)
        for i, m, value, error in zip(split, mid, new_v, new_e):
            hi[i] = m
            v[i] = value
            e[i] = error
        lo += mid
        hi += right
        v += new_v[len(split):]
        e += new_e[len(split):]


def _auto_cutoff(power: int, rate: float, lead: float, divides: bool) -> float:
    """The first finite T = 30/rate * 2^j, j = 0, 1, 2, ..., at which the
    envelope lead T^power e^(-rate T), over 1 - e^-T if divides, is below
    1e-18: formed with libm in _power_exp's order, so the search calls no
    integrand, and for psi_n at n >= 1 and power_integral, whose integrand
    the envelope is, it stops where a search on the integrand would.

    30/rate is inf only for rate = x near 0, where the integral, about
    lead * power!/x^(power+1), is inf too (OverflowError) unless power is 0
    and lead/x is finite; then the cutoff is unreachable (QuadratureError).
    """
    t = 30.0 / rate
    if t == math.inf:
        if power > 0 or lead / rate == math.inf:
            raise OverflowError(
                f"result left the binary64 range: the integral grows like "
                f"x^-{power + 1} and x = {rate!r}"
            )
        raise QuadratureError(f"the truncation point 30/x is not finite for x = {rate!r}")
    while True:
        z = power * math.log(t) - rate * t
        over = -math.expm1(-t) if divides else 1.0
        # past 709 math.exp raises, and the envelope is far above 1e-18
        if z < 709.0 and lead * math.exp(z) / over < _TINY_INTEGRAND:
            return t
        if 2.0 * t == math.inf:
            raise QuadratureError(
                f"no truncation point up to T = {t!r}: the integrand does not decay"
            )
        t *= 2.0


def _exp_poly_tail(m: int, x: float, upper: float) -> float:
    """Exact value of int_upper^inf t^m e^(-xt) dt, used as a tail bound.

    Equals (m!/x^(m+1)) e^-s sum_{j<=m} s^j/j! with s = x*upper.  For s past
    600 the direct sum is replaced by its largest-term bound (m+1) s^m / m!,
    valid once s >= m.  Every caller checks m <= 40 < 600, so that holds for
    any cutoff.
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


def _run_integral(f: Callable[[np.ndarray], np.ndarray], power: int, rate: float,
                  lead: float = 1.0, divides: bool = False) -> tuple[float, float]:
    """(value, error) of int_0^inf f, where |f| is at most the envelope
    lead t^power e^(-rate t), over 1 - e^-t if divides: f integrated up to
    _auto_cutoff's T at _REL_TOL with at most _MAX_SUBDIVISIONS splits, and
    the error plus the envelope's exact integral past T, which bounds the
    dropped tail as 1 - e^-t grows with t.  An integrand that overflows does
    so silently and leaves the value or error non-finite (inf, or nan from
    inf - inf), which the caller's _result turns into OverflowError.
    """
    upper = _auto_cutoff(power, rate, lead, divides)
    with np.errstate(over="ignore", invalid="ignore"):
        v, e = _integrate(f, upper)
    over = -math.expm1(-upper) if divides else 1.0
    return v, e + lead * _exp_poly_tail(power, rate, upper) / over


def polygamma_integral(n: int, x: float) -> EvalResult:
    """psi_n(x) from its integral form.

    n = 0:  psi(x) = -gamma + int_0^inf (e^-t - e^-xt)/(1 - e^-t) dt
    n >= 1: psi_n(x) = (-1)^(n+1) int_0^inf t^n e^-xt/(1 - e^-t) dt

    The reported error is the summed panel discrepancy and the rounding
    floor plus the exact bound on the dropped tail, so doubling the cutoff
    moves the value by less than the bar.
    """
    n = _check_order(n)
    x = _check_x(x)
    if n == 0:
        # e^-t - e^-xt = sign e^(-rate t) (1 - e^(-|x - 1| t)): a product,
        # so f keeps its relative accuracy as x nears 1, where the
        # difference of the two exponentials cancels
        rate = min(1.0, x)
        sign = 1.0 if x > 1.0 else -1.0
        gap = abs(x - 1.0)

        def f(t: np.ndarray) -> np.ndarray:
            return sign * np.exp(-rate * t) * np.expm1(-gap * t) / np.expm1(-t)

        # |f| <= e^(-rate t)/(1 - e^-t), since |expm1(-gap t)| < 1
        v, e = _run_integral(f, 0, rate, divides=True)
        # the double nearest gamma and the sum below each round by at most
        # half an ulp, which no part of the integral's bar holds; eps times
        # their sizes covers both twice over
        value = -GAMMA_EULER + v
        return _result(value, e + _EPS * (GAMMA_EULER + abs(value)))

    def f(t: np.ndarray) -> np.ndarray:
        return _power_exp(n, x, t) / -np.expm1(-t)

    v, e = _run_integral(f, n, x, divides=True)
    sign = 1.0 if n % 2 == 1 else -1.0
    return _result(sign * v, e)


def power_integral(n: int, x: float) -> EvalResult:
    """n!/x^(n+1) via int_0^inf t^n e^-xt dt, for checking the gap's last term."""
    n = _check_order(n)
    x = _check_x(x)

    v, e = _run_integral(lambda t: _power_exp(n, x, t), n, x)
    return _result(v, e)


def _gap_integral(a: float, power: int, x: float, odd: bool) -> EvalResult:
    """int_0^inf [ (1-e^-at)/(1-e^-t) - a + offset ] t^power e^-xt dt, with
    offset 2a for the odd-order gap and 0 for the even one."""
    a = _check_shift(a)
    power = _check_order(power)
    x = _check_x(x)
    offset = 2.0 * a if odd else 0.0

    def f(t: np.ndarray) -> np.ndarray:
        return (_weight(a, t) + offset) * _power_exp(power, x, t)

    # the bracket stays below its large-t limit, 1 - a + offset
    v, e = _run_integral(f, power, x, 1.0 + a if odd else 1.0 - a)
    # _weight is a (r(t) - r(at)) / r(at) with each r within 2 eps, so it
    # errs by 2 eps w + 4 eps a.  Both are relative to the odd bracket,
    # which is at least 2a, but the even one tends to 0 as a nears 1, so
    # its bar takes 4 eps a t^power e^-xt too: 4 eps a power!/x^(power+1),
    # formed through its log, as power!/x^(power+1) alone can overflow
    # where the integral does not
    cancel = 0.0
    if not odd:
        ln_cancel = (math.log(4.0 * _EPS * a) + math.lgamma(power + 1.0)
                     - (power + 1.0) * math.log(x))
        cancel = math.exp(ln_cancel) if ln_cancel < 709.0 else math.inf
    return _result(v, e + cancel)


def gap_integral_even(a: float, power: int, x: float) -> EvalResult:
    """int_0^inf [ (1-e^-at)/(1-e^-t) - a ] t^power e^-xt dt.

    This is the n-th sign-adjusted derivative of the even-order shift gap
    when power = k + n; the integrand is strictly positive, which is the
    whole content of the complete-monotonicity claim being checked.  power
    is capped at 40 like every derivative order.
    """
    return _gap_integral(a, power, x, False)


def gap_integral_odd(a: float, power: int, x: float) -> EvalResult:
    """int_0^inf [ a + (1-e^-at)/(1-e^-t) ] t^power e^-xt dt.

    Same role as gap_integral_even but for the negated odd-order gap; the
    bracket equals the even one plus 2a.
    """
    return _gap_integral(a, power, x, True)
