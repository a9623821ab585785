"""Two-sided bounds on the polygamma difference psi_k(x+a) - psi_k(x).

For x > 1 and 0 < a < 1 the difference is pinched between a k!/x^(k+1) and
that same quantity shifted by the constant value the gap takes at x = 1:

    even k:  a k!/x^(k+1) < diff < a k!/x^(k+1) + C_even(a, k)
    odd k:   a k!/x^(k+1) + C_odd(a, k) < diff < a k!/x^(k+1)

where C(a, k) = psi_k(1+a) - psi_k(1) - a k! is the value of the gap at
x = 1, positive for even k and negative for odd k.  Both chains are strict
on the open ray x > 1 and collapse to equalities at x = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cm import GridSpec, ShiftParams, shift_gap_derivative
from .polygamma import _EPS, EvalResult, factorial_over_power, polygamma


@dataclass(frozen=True)
class BoundCheck:
    """One grid point of a two-sided bound verification.

    lower < middle < upper is the claim.  Each margin carries its own error
    estimate because the two sides have very different sensitivities: the
    endpoint constant only enters one of them, and at large x its rounding
    would otherwise swamp the genuinely tiny margin on the other side.
    """

    x: float
    lower: float
    middle: float
    upper: float
    lower_margin: float
    upper_margin: float
    lower_margin_error: float
    upper_margin_error: float
    passed: bool


def _check_x_gt_one(x: float) -> float:
    x = float(x)
    if not (math.isfinite(x) and x > 1.0):
        raise ValueError(f"bounds hold on x > 1 only, got x={x!r}")
    return x


def _difference(p: ShiftParams, x: float) -> tuple[float, float]:
    hi = polygamma(p.k, x + p.a)
    lo = polygamma(p.k, x)
    err = (
        hi.abs_error_estimate
        + lo.abs_error_estimate
        + _EPS * (abs(hi.value) + abs(lo.value))
    )
    return hi.value - lo.value, err


def _endpoint_shift_form(p: ShiftParams) -> tuple[float, float]:
    """C(a, k) via psi_k(a) and the recurrence, with its error estimate."""
    at_a = polygamma(p.k, p.a)
    at_one = polygamma(p.k, 1.0)
    fact = float(math.factorial(p.k))
    sign = 1.0 if p.k % 2 == 0 else -1.0
    pieces = (at_a.value, -at_one.value, sign * factorial_over_power(p.k, p.a), -p.a * fact)
    value = math.fsum(pieces)
    err = (
        at_a.abs_error_estimate
        + at_one.abs_error_estimate
        + _EPS * sum(abs(t) for t in pieces)
    )
    return value, err


def _bound_row(p: ShiftParams, x: float, endpoint: EvalResult) -> BoundCheck:
    """The chain at x > 1 given C(a, k) = endpoint: C joins the upper side for
    even k and the lower side for odd k; the other side is the bare base term."""
    c, c_err = endpoint.value, endpoint.abs_error_estimate
    base = p.a * factorial_over_power(p.k, x)
    middle, mid_err = _difference(p, x)
    even = p.k % 2 == 0
    lower = base if even else base + c
    upper = base + c if even else base
    lower_margin = middle - lower
    upper_margin = upper - middle
    base_err = _EPS * 4.0 * abs(base)
    lo_c_err, up_c_err = (0.0, c_err) if even else (c_err, 0.0)
    lo_err = mid_err + lo_c_err + base_err + _EPS * abs(lower_margin)
    up_err = mid_err + up_c_err + base_err + _EPS * abs(upper_margin)
    return BoundCheck(
        x=x,
        lower=lower,
        middle=middle,
        upper=upper,
        lower_margin=lower_margin,
        upper_margin=upper_margin,
        lower_margin_error=lo_err,
        upper_margin_error=up_err,
        passed=lower_margin > 0.0 and upper_margin > 0.0,
    )


def bound_check(p: ShiftParams, x: float) -> BoundCheck:
    """Check the parity-appropriate two-sided bound at one point x > 1."""
    return _bound_row(p, _check_x_gt_one(x), shift_gap_derivative(p, 0, 1.0))


def endpoint_constant_forms(p: ShiftParams) -> tuple[float, float]:
    """C(a, k) computed two independent ways.

    Route one evaluates the gap at x = 1 directly:
        psi_k(1+a) - psi_k(1) - a k!
    Route two rewrites psi_k(1+a) through the recurrence at a:
        psi_k(a) - psi_k(1) + (-1)^k k!/a^(k+1) - a k!

    The trailing term is -a k! in both routes and for both parities; only
    the recurrence contribution (-1)^k k!/a^(k+1) carries the parity sign.
    Route two cancels against that k!/a^(k+1) term, so for small a and
    large k it keeps only absolute, not relative, accuracy.
    """
    direct = shift_gap_derivative(p, 0, 1.0).value
    shifted, _ = _endpoint_shift_form(p)
    return direct, shifted


def endpoint_constants(p: ShiftParams) -> float:
    """The gap's value C(a, k) at x = 1, cross-checked through both routes.

    Raises ArithmeticError if the two routes disagree beyond what their
    combined rounding budgets can explain, which would mean the evaluator
    itself is broken; the check costs four polygamma calls and buys a free
    invariant on every use.
    """
    gap = shift_gap_derivative(p, 0, 1.0)
    direct, direct_err = gap.value, gap.abs_error_estimate
    shifted, shifted_err = _endpoint_shift_form(p)
    allowance = max(1e-9 * max(1.0, abs(direct)), 8.0 * (direct_err + shifted_err))
    if abs(direct - shifted) > allowance:
        raise ArithmeticError(
            f"endpoint constant routes disagree: {direct!r} vs {shifted!r} for {p}"
        )
    return direct


def bound_table(p: ShiftParams, grid: GridSpec) -> list[BoundCheck]:
    """Evaluate the parity-appropriate two-sided bound at every grid point.

    The grid must sit strictly above x = 1.  C(a, k) does not depend on x,
    so it is evaluated once for the whole table, by the direct route (the gap
    at x = 1); the recurrence route only cross-checks it in endpoint_constants.
    """
    if grid.lo <= 1.0:
        raise ValueError(f"bound_table needs a grid with lo > 1, got lo={grid.lo}")
    endpoint = shift_gap_derivative(p, 0, 1.0)
    return [_bound_row(p, float(x), endpoint) for x in grid.generate()]
