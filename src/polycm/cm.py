"""Complete-monotonicity checks for shifted polygamma differences.

The central object is the gap

    g(x) = psi_k(x + a) - psi_k(x) - a k! / x^(k+1),   0 < a < 1,

which is strictly completely monotonic on x > 0 for even k, while for odd k
its negation is.  Equivalently (-1)^n g^(n)(x) keeps one strict sign for
every derivative order n; cm_scan samples that sign pattern over a grid and
reports the worst margin found together with where it happened.

The module also carries the two elementary ingredients behind those facts:
the two-parameter exponential ratio (e^-alpha t - e^-beta t)/(1 - e^-t) with
its exact monotonicity criterion, and the squeeze
a < (1 - e^-at)/(1 - e^-t) < 1 for t > 0.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .polygamma import (
    _EPS,
    MAX_ORDER,
    EvalResult,
    _check_order,
    _check_x,
    _polygamma_array,
    factorial_over_power,
    polygamma,
)

#: A sampled derivative value is treated as having a definite sign only when
#: it clears its propagated error estimate by this factor; points under the
#: guard are counted as indeterminate rather than failed, since the gap
#: legitimately flattens toward zero at large x.
SIGN_GUARD = 1e3

#: Samples per array-kernel call in cm_scan; bounds the scan's working
#: memory whatever the number of grid points.
_SCAN_BLOCK = 4096


@dataclass(frozen=True)
class RatioParams:
    """Exponent pair (alpha, beta) of the two-parameter exponential ratio."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", float(self.beta))
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError("alpha and beta must be finite")
        if self.alpha == self.beta:
            raise ValueError("alpha and beta must differ")


@dataclass(frozen=True)
class ShiftParams:
    """Shift a in (0, 1) and base derivative order k of the gap."""

    a: float
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "k", operator.index(self.k))
        if not 0.0 < self.a < 1.0:
            raise ValueError(f"a must lie strictly in (0, 1), got {self.a!r}")
        if self.k < 0 or self.k > MAX_ORDER:
            raise ValueError(f"k must be in [0, {MAX_ORDER}], got {self.k}")


@dataclass(frozen=True)
class GridSpec:
    """Sampling grid on [lo, hi], linear or logarithmic."""

    lo: float
    hi: float
    points: int
    spacing: str = "logarithmic"

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        object.__setattr__(self, "points", operator.index(self.points))
        if not (math.isfinite(self.lo) and self.lo > 0.0):
            raise ValueError(f"lo must be positive, got {self.lo!r}")
        if not (math.isfinite(self.hi) and self.hi > self.lo):
            raise ValueError(f"hi must exceed lo, got {self.hi!r}")
        if self.points < 2:
            raise ValueError(f"points must be >= 2, got {self.points}")
        if self.spacing not in ("linear", "logarithmic"):
            raise ValueError(f"spacing must be linear or logarithmic, got {self.spacing!r}")

    def generate(self) -> np.ndarray:
        """Strictly increasing points spanning [lo, hi] exactly."""
        if self.spacing == "linear":
            return np.linspace(self.lo, self.hi, self.points)
        return np.geomspace(self.lo, self.hi, self.points)


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


def exp_diff_ratio(p: RatioParams, t: float) -> float:
    """(e^-alpha t - e^-beta t) / (1 - e^-t) for t > 0, extended by its
    limit beta - alpha at t = 0."""
    t = float(t)
    if t < 0.0 or not math.isfinite(t):
        raise ValueError(f"t must be finite and >= 0, got {t!r}")
    al, be = p.alpha, p.beta
    if t == 0.0:
        return be - al
    if t < 1e-4:
        # leading series of numerator and denominator; next terms are O(t^4)
        # relative, far below 1e-16 at this switch point
        num = (
            (be - al)
            + (al * al - be * be) * t / 2.0
            + (be**3 - al**3) * t * t / 6.0
            + (al**4 - be**4) * t**3 / 24.0
        )
        den = 1.0 - t / 2.0 + t * t / 6.0 - t**3 / 24.0
        return num / den
    return (math.expm1(-al * t) - math.expm1(-be * t)) / (-math.expm1(-t))


def increasing_condition(p: RatioParams) -> bool:
    """True iff the exponential ratio is increasing on t > 0.

    The exact criterion: (beta - alpha)(1 - alpha - beta) >= 0 and
    (beta - alpha)(|alpha - beta| - alpha - beta) >= 0.
    """
    d = p.beta - p.alpha
    return d * (1.0 - p.alpha - p.beta) >= 0.0 and d * (abs(p.alpha - p.beta) - p.alpha - p.beta) >= 0.0


def expm1_ratio(a: float, t: float) -> float:
    """(1 - e^-at)/(1 - e^-t) for t > 0, strictly inside (a, 1) for 0 < a < 1."""
    a = float(a)
    if not (0.0 < a < 1.0):
        raise ValueError(f"a must lie in (0, 1), got {a!r}")
    t = float(t)
    if not (math.isfinite(t) and t > 0.0):
        raise ValueError(f"t must be finite and positive, got {t!r}")
    return math.expm1(-a * t) / math.expm1(-t)


def _gap(p: ShiftParams, n: int, x: float) -> tuple[float, float, float]:
    """shift_gap_derivative's (value, error bar) for an order and x already
    checked, plus its power term (-1)^n a (k+n)!/x^(k+n+1)."""
    m = p.k + n
    hi = polygamma(m, x + p.a)
    lo = polygamma(m, x)
    sign = 1.0 if n % 2 == 0 else -1.0
    last = sign * p.a * factorial_over_power(m, x)
    value = math.fsum((hi.value, -lo.value, -last))
    err = (
        hi.abs_error_estimate
        + lo.abs_error_estimate
        + _EPS * (abs(hi.value) + abs(lo.value) + 2.0 * abs(last))
    )
    return value, err, last


def shift_gap_derivative(p: ShiftParams, n: int, x: float) -> EvalResult:
    """Exact n-th derivative of the gap, the gap itself at n = 0:

    g^(n)(x) = psi_(k+n)(x+a) - psi_(k+n)(x) - (-1)^n a (k+n)!/x^(k+n+1)

    No finite differencing is involved; differentiating the gap just bumps
    the polygamma order and alternates the sign of the power term.  The
    three terms are added with one final rounding (math.fsum), so at n = 0,
    x = 1 this is the direct route to the endpoint constant C(a, k) in
    polycm.bounds, whose bound rows are built on the same gap.
    """
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    _check_order(p.k + n)
    value, err, _ = _gap(p, n, _check_x(x))
    return EvalResult(value, err)


def _gap_block(p: ShiftParams, n: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """shift_gap_derivative(p, n[i], x[i]) for every i, as (values, error bars).

    The two polygamma values of every sample come from one array-kernel
    call, interleaved as x[i] + a, x[i] in sample order, so the kernel
    raises what shift_gap_derivative would raise first.  The three terms and
    the bar are shift_gap_derivative's.  Finite polygamma bars keep |hi|,
    |lo| and |last| (which |lo| or its 1/x shift term exceeds) under an
    eighth of the binary64 range, so the gap's bar is finite too and raises
    nowhere that shift_gap_derivative's would.
    """
    m = p.k + n
    values, bars = _polygamma_array(np.repeat(m, 2), np.column_stack((x + p.a, x)).ravel())
    hi, lo = values[0::2], values[1::2]
    fop = np.array([factorial_over_power(mi, xi) for mi, xi in zip(m.tolist(), x.tolist())])
    last = np.where(n % 2 == 0, p.a, -p.a) * fop
    value = np.array([math.fsum(t) for t in zip(hi.tolist(), (-lo).tolist(), (-last).tolist())])
    err = bars[0::2] + bars[1::2] + _EPS * (np.abs(hi) + np.abs(lo) + 2.0 * np.abs(last))
    return value, err


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
    max_order = operator.index(max_order)
    if max_order < 0 or p.k + max_order > MAX_ORDER:
        raise ValueError(f"max_order must satisfy 0 <= k + max_order <= {MAX_ORDER}")
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
        value, err = _gap_block(p, n, x)
        # (-1)^n for the derivative order, times -1 again for odd k
        signed = np.where((p.k + n) % 2 == 0, value, -value)
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
