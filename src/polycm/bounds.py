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

from .cm import GridSpec, ShiftParams, _gap, shift_gap_derivative
from .oracle import gap_integral_even, gap_integral_odd
from .polygamma import _EPS, EvalResult
# unused here, but bench/tracing.py wraps both names in this module
from .polygamma import factorial_over_power, polygamma  # noqa: F401


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


def _bound_row(p: ShiftParams, x: float, endpoint: EvalResult) -> BoundCheck:
    """The chain at x > 1 given C(a, k) = endpoint, built on the gap g(x).

    The base term a k!/x^(k+1) is the gap's own power term and the middle is
    base + g.  The margins are the gap itself: (g, C - g) for even k, where
    C joins the upper side, and (g - C, -g) for odd k, where it joins the
    lower one.  Each margin's bar is g's, plus C's on the side that has C,
    plus the rounding of the margin itself.
    """
    c, c_err = endpoint.value, endpoint.abs_error_estimate
    g, g_err, base = _gap(p, 0, x)
    if p.k % 2 == 0:
        lower, upper = base, base + c
        lower_margin, upper_margin = g, c - g
        lo_c_err, up_c_err = 0.0, c_err
    else:
        lower, upper = base + c, base
        lower_margin, upper_margin = g - c, -g
        lo_c_err, up_c_err = c_err, 0.0
    return BoundCheck(
        x=x,
        lower=lower,
        middle=base + g,
        upper=upper,
        lower_margin=lower_margin,
        upper_margin=upper_margin,
        lower_margin_error=g_err + lo_c_err + _EPS * abs(lower_margin),
        upper_margin_error=g_err + up_c_err + _EPS * abs(upper_margin),
        passed=lower_margin > 0.0 and upper_margin > 0.0,
    )


def bound_check(p: ShiftParams, x: float) -> BoundCheck:
    """Check the parity-appropriate two-sided bound at one point x > 1."""
    return _bound_row(p, _check_x_gt_one(x), shift_gap_derivative(p, 0, 1.0))


def endpoint_constants(p: ShiftParams) -> float:
    """The gap's value C(a, k) at x = 1, cross-checked by quadrature.

    C is taken directly, as shift_gap_derivative(p, 0, 1.0).  The check is
    the quadrature of the gap's integral representation at x = 1 (negated
    for odd k), which uses no polygamma value.  Raises ArithmeticError if the
    two disagree beyond what their combined error bars can explain, which
    would mean the evaluator itself is broken.
    """
    gap = shift_gap_derivative(p, 0, 1.0)
    direct, direct_err = gap.value, gap.abs_error_estimate
    if p.k % 2 == 0:
        quad = gap_integral_even(p.a, p.k, 1.0)
        other = quad.value
    else:
        quad = gap_integral_odd(p.a, p.k, 1.0)
        other = -quad.value
    allowance = max(1e-9 * max(1.0, abs(direct)), 8.0 * (direct_err + quad.abs_error_estimate))
    if abs(direct - other) > allowance:
        raise ArithmeticError(
            f"endpoint constant routes disagree: {direct!r} vs {other!r} for {p}"
        )
    return direct


def bound_table(p: ShiftParams, grid: GridSpec) -> list[BoundCheck]:
    """Evaluate the parity-appropriate two-sided bound at every grid point.

    The grid must sit strictly above x = 1.  C(a, k) does not depend on x,
    so it is evaluated once for the whole table, as the gap at x = 1;
    endpoint_constants cross-checks that same value by quadrature.
    """
    if grid.lo <= 1.0:
        raise ValueError(f"bound_table needs a grid with lo > 1, got lo={grid.lo}")
    endpoint = shift_gap_derivative(p, 0, 1.0)
    return [_bound_row(p, float(x), endpoint) for x in grid.generate()]
