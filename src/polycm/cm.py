"""Complete-monotonicity checks for shifted polygamma differences.

The central object is the gap

    g(x) = psi_k(x + a) - psi_k(x) - a k! / x^(k+1),   0 < a < 1,

which is strictly completely monotonic on x > 0 for even k, while for odd k
its negation is.  Equivalently (-1)^n g^(n)(x) keeps one strict sign for
every derivative order n; cm_scan samples that sign pattern over a grid and
reports the worst margin found together with where it happened.  It takes
its samples, and polycm.bounds its table rows, from _gap_block, which runs
the engine's numpy array kernel, _polygamma_array.  The kernel lives here,
beside its one caller, so that polycm.polygamma stays pure Python; its
powers and logs are libm's, so it returns polygamma's bits on every host.
It is built to make few numpy calls on blocks of about a thousand
elements, where each call's fixed cost is most of its time: a block of
orders n >= 1 gathers all its per-order constants in one call from
polygamma's one per-order table, _ORDERS, and the asymptotic series takes
four calls per term.

The module also carries the elementary ratio behind those facts,
(e^-alpha t - e^-beta t)/(1 - e^-t), with its exact monotonicity criterion;
the squeeze a < (1 - e^-at)/(1 - e^-t) < 1 for t > 0 is its (0, a) case.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import partial

import numpy as np

from .polygamma import (
    _COEFFICIENTS,
    _EPS,
    _MAX_ASYMPTOTIC_TERMS,
    _ORDERS,
    EvalResult,
    _as_float,
    _check_derivative,
    _check_order,
    _check_shift,
    _check_x,
    _result,
    factorial_over_power,
    polygamma,
)

#: A sampled derivative value is treated as having a definite sign only when
#: it clears its propagated error estimate by this factor; points under the
#: guard are counted as indeterminate rather than failed, since the gap
#: legitimately flattens toward zero at large x.
SIGN_GUARD = 1e3

#: Samples per _gap_block call in cm_scan, and rows per call in
#: polycm.bounds.bound_table; bounds their working memory whatever the
#: number of grid points: the kernel's shift pass (_shift_sum) holds a block
#: of at most 48 steps (its largest capped count) by at most 2 x _SCAN_BLOCK
#: elements, and the mask of its live cells.
_SCAN_BLOCK = 4096

@dataclass(frozen=True)
class ShiftParams:
    """Shift a in (0, 1) and base derivative order k of the gap."""

    a: float
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _check_shift(self.a))
        object.__setattr__(self, "k", _check_order(self.k))


@dataclass(frozen=True)
class GridSpec:
    """Logarithmic sampling grid on [lo, hi]."""

    lo: float
    hi: float
    points: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", _check_x(self.lo, "lo"))
        object.__setattr__(self, "hi", _as_float(self.hi))
        object.__setattr__(self, "points", operator.index(self.points))
        if not self.hi < math.inf:
            raise ValueError(f"hi must be finite, got {self.hi!r}")
        if not self.hi > self.lo:
            raise ValueError(f"hi must exceed lo, got {self.hi!r}")
        if self.points < 2:
            raise ValueError(f"points must be >= 2, got {self.points}")

    def generate(self) -> np.ndarray:
        """Strictly increasing points spanning [lo, hi] exactly.

        lo, then 10^(i*step + log10(lo)) for 0 < i < points - 1, then hi,
        with step = (log10(hi) - log10(lo)) / (points - 1).  The logs are
        libm's (math.log10), and so are the powers (np.float_power), not
        numpy's SIMD loops, so every host builds the same bits; the ends are
        never raised to a power, as 10^log10(hi) overflows for hi near
        DBL_MAX, and an interior power that does is inf.  Raises ValueError
        when [lo, hi] holds too few doubles for that many distinct points.
        """
        log_lo = math.log10(self.lo)
        step = (math.log10(self.hi) - log_lo) / (self.points - 1)
        # the exponents first: a grid larger than memory raises MemoryError
        # before any per-point work
        inner = np.arange(1, self.points - 1) * step + log_lo
        xs = np.empty(self.points)
        xs[0], xs[-1] = self.lo, self.hi
        with np.errstate(over="ignore"):
            np.float_power(10.0, inner, out=xs[1:-1])
        if not (xs[1:] > xs[:-1]).all():
            raise ValueError(
                f"[{self.lo!r}, {self.hi!r}] is too narrow for {self.points} distinct "
                "logarithmic points"
            )
        return xs


@dataclass(frozen=True)
class CMScanReport:
    """Outcome of a grid scan of the sign pattern (-1)^n g^(n)(x) > 0."""

    params: ShiftParams
    derivative_orders: list[int]
    grid: GridSpec
    min_signed_value: float
    witness_point: tuple[int, float] | None
    witness_error: float
    indeterminate_count: int
    passed: bool


def _check_pair(alpha: float, beta: float) -> tuple[float, float]:
    alpha, beta = _as_float(alpha), _as_float(beta)
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise ValueError("alpha and beta must be finite")
    if alpha == beta:
        raise ValueError("alpha and beta must differ")
    return alpha, beta


def _product_error(a: float, b: float, p: float) -> float:
    """a b - p, correctly rounded, for finite a, b and p: exact rational
    arithmetic, so no split of a or b can overflow or underflow."""
    (an, ad), (bn, bd), (pn, pd) = a.as_integer_ratio(), b.as_integer_ratio(), p.as_integer_ratio()
    return (an * bn * pd - pn * ad * bd) / (ad * bd * pd)


def exp_diff_ratio(alpha: float, beta: float, t: float) -> float:
    """(e^-alpha t - e^-beta t) / (1 - e^-t) for t > 0, extended by its
    limit beta - alpha at t = 0.  At (0, a) this is the squeeze
    (1 - e^-at)/(1 - e^-t), which lies strictly inside (a, 1) for 0 < a < 1.

    Raises OverflowError, naming the call, where the result leaves the
    binary64 range (or, below the series switch, where beta - alpha does)."""
    al, be = _check_pair(alpha, beta)
    t = _as_float(t)
    if t < 0.0 or not math.isfinite(t):
        raise ValueError(f"t must be finite and >= 0, got {t!r}")
    d = be - al
    if max(1.0, abs(al), abs(be)) * t < 1e-4:
        # u = alpha t, v = beta t and t are all below 1e-4 in size, so the
        # next terms are below (1e-4)^4/120 ~ 1e-18 relative; beta - alpha
        # is factored out, so no power of alpha or beta alone is formed and
        # near-equal pairs do not cancel
        u, v = al * t, be * t
        num = 1.0 - (u + v) / 2.0 + (u * u + u * v + v * v) / 6.0 - (u + v) * (u * u + v * v) / 24.0
        den = 1.0 - t / 2.0 + t * t / 6.0 - t**3 / 24.0
        value = d * (num / den)
    else:
        # e^-alpha t - e^-beta t = -e^-alpha t expm1(-d t) = e^-beta t expm1(d t):
        # with lo = min(alpha, beta) the factor is e^-lo t and expm1 takes
        # -|d| t, so the difference neither cancels nor overflows in expm1.
        # lo t = p + e exactly, and e^-(p + e) = e^-p (1 - e) to within
        # e^2/2 < 2e-26 wherever the result is finite, so the rounding of
        # lo t costs no digits
        lo = min(al, be)
        p = lo * t
        e = _product_error(lo, t, p) if math.isfinite(p) else 0.0
        q = math.expm1(-abs(d) * t) / math.expm1(-t)
        try:
            if p >= -709.0:
                factor = math.exp(-p)
                value = (factor - factor * e) * q
            else:
                # e^-p alone overflows where the ratio need not (a near-equal
                # pair makes q small), so q goes between two halves of e^-p
                half = math.exp(-0.5 * p)
                half -= 0.5 * half * e
                value = half * q * half
        except OverflowError:
            value = math.inf
        value = math.copysign(value, d)
    if not math.isfinite(value):
        raise OverflowError(f"exp_diff_ratio({al!r}, {be!r}, {t!r}) left the binary64 range")
    return value


def increasing_condition(alpha: float, beta: float) -> bool:
    """True iff the exponential ratio is increasing on t > 0.

    The exact criterion: (beta - alpha)(1 - alpha - beta) >= 0 and
    (beta - alpha)(|alpha - beta| - alpha - beta) >= 0.
    """
    al, be = _check_pair(alpha, beta)
    d = be - al
    return d * (1.0 - al - be) >= 0.0 and d * (abs(al - be) - al - be) >= 0.0


def shift_gap_derivative(p: ShiftParams, n: int, x: float) -> EvalResult:
    """Exact n-th derivative of the gap, the gap itself at n = 0:

    g^(n)(x) = psi_(k+n)(x+a) - psi_(k+n)(x) - (-1)^n a (k+n)!/x^(k+n+1)

    No finite differencing is involved; differentiating the gap just bumps
    the polygamma order and alternates the sign of the power term.  The
    three terms are added with one final rounding (math.fsum), so at n = 0,
    x = 1 this is the direct route to the endpoint constant C(a, k) in
    polycm.bounds.  _gap_block gives the same bits over arrays of samples.
    """
    n = _check_derivative(p.k, n)
    x = _check_x(x)
    m = p.k + n
    hi = polygamma(m, x + p.a)
    lo = polygamma(m, x)
    last = (1.0 if n % 2 == 0 else -1.0) * p.a * factorial_over_power(m, x)
    value = math.fsum((hi.value, -lo.value, -last))
    err = (hi.abs_error_estimate + lo.abs_error_estimate
           + _EPS * (abs(hi.value) + abs(lo.value) + 2.0 * abs(last)))
    return _result(value, err)


# The array kernel's copies of polycm.polygamma's tables; the series
# coefficients one row per term, so each term's column of orders is
# contiguous.
_COEFFICIENT_TERMS = np.array(_COEFFICIENTS).T.copy()
#: polygamma's per-order table transposed, one column per order n and one
#: row per constant, so that a block of orders gathers all of them in one
#: call, _ORDER_ROWS[:, n].
_ORDER_ROWS = np.array(_ORDERS).T.copy()
#: (-1)^n for every order n, the sign of the gap's power term and the scan's.
_ALTERNATING = -_ORDER_ROWS[8]
#: How _series adds a term's size to the budget, per term: the term itself
#: (np.add) where its coefficient is positive, its negation (np.subtract)
#: where it is negative, so |term| is never formed and no bit moves.  The
#: sign of c_j is that of B_2j at every order n >= 1, and the opposite at
#: n = 0, whose coefficients carry digamma's minus sign.
_POSITIVE_STEPS, _ZERO_STEPS = (
    tuple(np.add if c > 0.0 else np.subtract for c in _COEFFICIENTS[n][:_MAX_ASYMPTOTIC_TERMS])
    for n in (1, 0)
)


def _polygamma_array(n: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """polygamma(n[i], x[i]) for every i, as (values, error bars).

    Orders and arguments must already be valid.  _order_zero evaluates the
    n = 0 elements and _positive_orders the others, a block of one kind
    whole, each with polygamma's bits, and each gives an element a bar that
    is not finite exactly where polygamma raises on it.  At the first such
    element in index order, polygamma itself, looked up in this module as
    shift_gap_derivative looks it up, raises its own message; so the
    outcome, values or the first raise, is that of
    [polygamma(*e) for e in zip(n, x)].
    """
    n = np.asarray(n, dtype=np.intp)
    x = np.asarray(x, dtype=float)
    zero = n == 0
    if not zero.any():
        values, bars = _positive_orders(n, x)
    elif zero.all():
        values, bars = _order_zero(x)
    else:
        values, bars = np.empty_like(x), np.empty_like(x)
        zeros, positive = np.flatnonzero(zero), np.flatnonzero(n)
        values[zeros], bars[zeros] = _order_zero(x[zeros])
        values[positive], bars[positive] = _positive_orders(n[positive], x[positive])
    finite = np.isfinite(bars)
    if not finite.all():
        i = int(np.argmin(finite))
        m, xi = int(n[i]), float(x[i])
        polygamma(m, xi)
        raise AssertionError(f"polygamma({m}, {xi!r}) returned where the array kernel's bar is "
                             f"{float(bars[i])!r}")
    return values, bars


def _shift_sum(x: np.ndarray, steps: np.ndarray, form, *operands: np.ndarray) -> np.ndarray:
    """The recurrence's shift sum of every element: its terms
    form(x[i] + j, *(o[i] for o in operands)) for j < steps[i], added in
    order of j from 0.0, as the scalar engine's fold adds them; 0.0 where
    steps[i] is 0, where the scalar engine forms no fold at all (the value
    and budget it would add 0.0 to are never -0.0, so no bit differs).

    The elements with steps make the columns of one C-ordered block, in
    their given order, with a row per step j; form(..., out=, where=) fills
    only the live cells, j < steps[i], and the others stay 0.0, which adds
    nothing.  numpy pairs terms up only along the axis that is fast in
    memory (see the notes of np.sum); reducing over the slow axis, the
    steps, adds each column's terms in order and on its own, whatever the
    order of the columns.  A single column is itself the fast axis, which
    np.add.reduce would sum pairwise, so it is added in a loop.
    """
    total = np.zeros_like(x)
    below = np.flatnonzero(steps)
    if below.size:
        steps = steps[below]
        j = np.arange(steps.max())[:, None]
        live = j < steps
        terms = form(x[below] + j, *(o[below] for o in operands),
                     out=np.zeros(live.shape), where=live)
        if below.size > 1:
            total[below] = np.add.reduce(terms, axis=0)
        else:
            acc = 0.0
            for term in terms[:, 0].tolist():
                acc += term
            total[below] = acc
    return total


def _series(
    coefficients: np.ndarray, value: np.ndarray, budget: np.ndarray, power: np.ndarray,
    inv2: np.ndarray, steps: tuple[np.ufunc, ...],
) -> np.ndarray:
    """polygamma's asymptotic series: adds its 20 terms c_j power inv2^j
    to value, and their sizes to budget, in place, and returns the
    truncation bound, the size of the 21st.  coefficients holds one row
    per term, each a column of orders or one order's coefficient, and
    steps one ufunc per term, _POSITIVE_STEPS or _ZERO_STEPS: each term's
    coefficient has one sign over the whole column, and power is never
    negative, so budget + |t| is budget + t or budget - t, the same
    rounding of the same exact sum.  Four numpy calls per term.

    It runs all 20 terms, where the scalar engine stops at a negligible
    term with the full sum's bits (see the series comment in polygamma).
    """
    term = np.empty_like(power)
    for c, step in zip(coefficients, steps):
        np.multiply(c, power, out=term)
        value += term
        step(budget, term, out=budget)
        power *= inv2
    return np.abs(coefficients[_MAX_ASYMPTOTIC_TERMS] * power)


def _order_zero(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """polygamma(0, x[i]) for every i, as (values, error bars), through
    polygamma's n = 0 steps: its shift count, the head ln y - 1/(2y) with
    libm's log per element (math.log, not numpy's SIMD log, which can
    differ by an ulp), the same series, the fold of 1/(x+j) over every step
    (_shift_sum) and the same error bar.  So every finite bar, and its
    value, is polygamma's bit for bit.  polygamma raises only where its
    value or bar is not finite (1/x overflows below about 5.6e-309), and
    the bar here, which adds 8 |value|, is not finite there either.
    """
    count = np.maximum(0.0, np.ceil(_ORDER_ROWS[0, 0] - x))  # order 0's threshold
    with np.errstate(over="ignore", under="ignore"):
        shift = _shift_sum(x, count, partial(np.divide, 1.0))

        # head: ln y - 1/(2y), with the budget |head| + 1/y
        y = x + count
        inv2 = 1.0 / (y * y)
        value = np.fromiter(map(math.log, y.tolist()), float, y.size) - 0.5 / y
        budget = np.abs(value) + 1.0 / y
        trunc = _series(_COEFFICIENT_TERMS[:, 0], value, budget, inv2.copy(), inv2, _ZERO_STEPS)

        value -= shift
        budget += shift
        bars = trunc + _EPS * (2.0 * budget + 8.0 * np.abs(value))
    return value, bars


def _positive_orders(n: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """polygamma(n[i], x[i]) for orders n >= 1, as (values, error bars),
    through polygamma's steps: its own shift count, the same head, the same
    series and the same error bar.  Every per-order constant, the shift
    cap r = 2^(54/(n+1)) - 1 and the n! of the head and the shift sum among
    them, comes from one gather of _ORDER_ROWS, the scalar engine's own
    table, and the sign (-1)^(n+1) goes on as a factor of +-1, exactly.

    Its shift pass, _shift_sum, folds (x+j)^-(n+1) over the steps
    j < floor(x r) + 2 within the shift count: every step the scalar fold
    adds is among them, and each of them after the fold's stop leaves the
    running total unchanged (see the cap comment at polygamma._ORDERS and
    the fold comment in polygamma), so both folds end on the same bits.
    Its powers are np.float_power's, libm's pow per element, the pow behind
    CPython's **, so wherever polygamma returns, the value and bar here are
    its bits on every numpy CPU dispatch.  float_power never raises, where
    ** raises OverflowError on a power that overflows; of polygamma's
    powers only two can (the others have negative exponents and y >= 10):
    the j = 0 shift term x^-(n+1), which makes the bar here inf too, and
    the head's y^(n+1), which here would only drop the head's second term,
    so the bar is set to inf where it is inf.  So the bar is not finite
    exactly where polygamma raises, there or in _result.
    """
    (threshold, cap, neg_n_plus_1, n_plus_1, neg_n_plus_2, neg_n, fact_nm1, fact_n,
     sign) = _ORDER_ROWS[:, n]
    count = np.maximum(0.0, np.ceil(threshold - x))
    with np.errstate(over="ignore", under="ignore"):
        # the steps up to the cap: a count of 0 stays 0, and an x r that
        # overflows is inf, so the count bounds it
        capped = np.minimum(count, np.floor(x * cap) + 2.0)
        acc = _shift_sum(x, capped, np.float_power, neg_n_plus_1)

        # head: (n-1)!/y^n + n!/(2 y^(n+1))
        y = x + count
        inv2 = 1.0 / (y * y)
        half_power = np.float_power(y, n_plus_1)
        power = np.float_power(y, neg_n_plus_2)
        value = fact_nm1 * np.float_power(y, neg_n) + fact_n / (2.0 * half_power)
        budget = value.copy()
        trunc = _series(_COEFFICIENT_TERMS[:, n], value, budget, power, inv2, _POSITIVE_STEPS)

        shift = fact_n * acc
        total = value + shift
        budget += shift
        bars = trunc + _EPS * (2.0 * budget + 8.0 * total)
    bars[half_power == np.inf] = np.inf
    return total * sign, bars


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a + b rounded, its exact rounding error), elementwise (Knuth)."""
    s = a + b
    bv = s - a
    return s, (a - (s - bv)) + (b - bv)


def _fsum3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """math.fsum((a[i], b[i], c[i])) for every i, bit for bit, for finite
    terms whose sums stay finite.

    The correctly rounded three-term sum of Boldo and Melquiond ("Emulation
    of FMA and correctly rounded sums: proved algorithms using rounding to
    odd", IEEE Trans. Computers 57(4), 2008): two TwoSums, the two low parts
    added with rounding to odd, then one rounded add.  math.fsum rounds
    correctly too, so the two agree.  A TwoSum's error term is never -0.0,
    so neither is v, and an exact zero comes out +0.0, as from math.fsum.
    """
    uh, ul = _two_sum(b, c)
    th, tl = _two_sum(a, uh)
    v, v_err = _two_sum(tl, ul)
    # rounding to odd: an inexact v with an even last bit moves one ulp
    # toward the exact sum, onto its odd neighbour
    even = (v.view(np.int64) & 1) == 0
    v = np.where((v_err != 0.0) & even, np.nextafter(v, np.copysign(np.inf, v_err)), v)
    return th + v


def _gap_block(
    p: ShiftParams, n: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """shift_gap_derivative(p, n[i], x[i]) for every i, as (values, error
    bars, power terms (-1)^n a (k+n)!/x^(k+n+1)).

    The two polygamma values of every sample come from one array-kernel
    call, interleaved as x[i] + a, x[i] in sample order, so the kernel
    raises what shift_gap_derivative would raise first, and its values
    and bars are polygamma's bits.  The power term and the three-term sum
    (_fsum3) run as array code with no per-sample Python loop, and both
    give shift_gap_derivative's bits; so does the bar, which is its
    formula.  The power term is factorial_over_power's plain branch
    m!/x**(m+1), with libm's pow (np.float_power) and an IEEE division,
    and every sample that gets here would take that branch.  A finite bar
    on psi_m(x) keeps m!/x^(m+1) under DBL_MAX/2, as its budget holds it as
    the first shift step below the threshold, and x >= 10 above it.  And a
    sample on which polygamma returns has x^(m+1) finite (at m >= 1 above
    the threshold polygamma forms it, and raises where it overflows), so
    m!/x^(m+1) >= m!/DBL_MAX > e^-745.
    Finite polygamma bars keep |hi|, |lo| and |last| (which |lo| or its
    1/x shift term exceeds) under an eighth of the binary64 range, so the
    sum and the bar are finite too and raise nowhere that
    shift_gap_derivative's would.
    """
    m = p.k + n
    pairs = np.empty(2 * x.size)
    np.add(x, p.a, out=pairs[0::2])
    pairs[1::2] = x
    values, bars = _polygamma_array(np.repeat(m, 2), pairs)
    hi, lo = values[0::2], values[1::2]
    last = _ALTERNATING[n] * p.a * (_ORDER_ROWS[7, m] / np.float_power(x, m + 1.0))  # m!
    value = _fsum3(hi, -lo, -last)
    err = bars[0::2] + bars[1::2] + _EPS * (np.abs(hi) + np.abs(lo) + 2.0 * np.abs(last))
    return value, err, last


def cm_scan(p: ShiftParams, max_order: int, grid: GridSpec) -> CMScanReport:
    """Scan (-1)^n g^(n)(x) (negated gap for odd k) over orders 0..max_order.

    Every sampled value should be strictly positive.  Points whose magnitude
    does not clear SIGN_GUARD times the propagated error bar are recorded as
    indeterminate, consistent with the gap's limit of zero at large x, and
    excluded from the minimum.  The scan passes when the smallest determinate
    signed value is positive and exceeds its own error bar; ties for the
    minimum resolve to the lexicographically first (n, x).

    The samples are taken order-major, _SCAN_BLOCK at a time, each block
    through one array-kernel call.
    """
    max_order = _check_derivative(p.k, max_order)
    orders = list(range(max_order + 1))
    xs = grid.generate()
    samples = len(orders) * grid.points
    min_signed = math.inf
    witness: tuple[int, float] | None = None
    witness_err = math.inf
    indeterminate = 0
    for start in range(0, samples, _SCAN_BLOCK):
        n, i = np.divmod(np.arange(start, min(start + _SCAN_BLOCK, samples)), grid.points)
        x = xs[i]
        value, err, _ = _gap_block(p, n, x)
        # (-1)^n for the derivative order, times -1 again for odd k
        signed = value * _ALTERNATING[p.k + n]
        determinate = np.flatnonzero(np.abs(signed) >= SIGN_GUARD * err)
        indeterminate += len(n) - len(determinate)
        if len(determinate) == 0:
            continue
        best = determinate[np.argmin(signed[determinate])]
        if signed[best] < min_signed:
            min_signed = float(signed[best])
            witness = (int(n[best]), float(x[best]))
            witness_err = float(err[best])
    passed = witness is not None and min_signed > witness_err
    return CMScanReport(
        params=p,
        derivative_orders=orders,
        grid=grid,
        min_signed_value=min_signed,
        witness_point=witness,
        witness_error=witness_err,
        indeterminate_count=indeterminate,
        passed=passed,
    )
