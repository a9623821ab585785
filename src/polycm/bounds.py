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

from dataclasses import dataclass

import numpy as np

from . import oracle
from .cm import _SCAN_BLOCK, GridSpec, ShiftParams, _gap_block, shift_gap_derivative
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


def endpoint_constants(p: ShiftParams) -> EvalResult:
    """The gap's value C(a, k) at x = 1 with its error bar, cross-checked by
    quadrature.

    C is taken directly, as shift_gap_derivative(p, 0, 1.0), and returned
    as that result.  The check is the quadrature of the gap's integral
    representation at x = 1 (negated for odd k), which uses no polygamma
    value.  Raises ArithmeticError if the two disagree beyond what their
    combined error bars can explain, which would mean the evaluator itself
    is broken.
    """
    gap = shift_gap_derivative(p, 0, 1.0)
    direct, direct_err = gap.value, gap.abs_error_estimate
    if p.k % 2 == 0:
        quad = oracle.gap_integral_even(p.a, p.k, 1.0)
        other = quad.value
    else:
        quad = oracle.gap_integral_odd(p.a, p.k, 1.0)
        other = -quad.value
    allowance = max(1e-9 * max(1.0, abs(direct)), 8.0 * (direct_err + quad.abs_error_estimate))
    if abs(direct - other) > allowance:
        raise ArithmeticError(
            f"endpoint constant routes disagree: {direct!r} vs {other!r} for {p}"
        )
    return gap


#: _row's builtins, bound once, as polygamma binds _result's.
_new = object.__new__
_setattr = object.__setattr__


def _row(x, lower, middle, upper, lower_margin, upper_margin,
         lower_margin_error, upper_margin_error, passed) -> BoundCheck:
    """BoundCheck(*fields), built as polygamma._result builds an
    EvalResult: the frozen dataclass's generated __init__ sets the same
    fields in the same order through object.__setattr__, and this skips
    its call overhead.  Setting them, not writing row.__dict__, keeps the
    rows' key-sharing dicts unmaterialised.

    Every faster build measured materialises the instance dict (CPython
    3.11, 50-row columns): item stores into row.__dict__ took 2.3x less
    time and 63 B more per row, and assigning a dict literal to __dict__
    2-3x less time and 175 B more per row (tracemalloc).  With the literal,
    a `verify` bench run's peak_rss_mb rose 4.3% (40.8 to 42.5 MB on seed
    5), as the bench keeps the first pass's tables.  So the rows stay
    unmaterialised.
    """
    row = _new(BoundCheck)
    _setattr(row, "x", x)
    _setattr(row, "lower", lower)
    _setattr(row, "middle", middle)
    _setattr(row, "upper", upper)
    _setattr(row, "lower_margin", lower_margin)
    _setattr(row, "upper_margin", upper_margin)
    _setattr(row, "lower_margin_error", lower_margin_error)
    _setattr(row, "upper_margin_error", upper_margin_error)
    _setattr(row, "passed", passed)
    return row


def bound_table(p: ShiftParams, grid: GridSpec) -> list[BoundCheck]:
    """Evaluate the parity-appropriate two-sided bound at every grid point.

    The grid must sit strictly above x = 1.  C(a, k) does not depend on x,
    so it is evaluated once for the whole table, as the gap at x = 1:
    element 0 of the table's one x array, [1.0, *grid].
    endpoint_constants cross-checks that same value by quadrature.

    The gaps come from _gap_block, _SCAN_BLOCK elements of that array at a
    time, with shift_gap_derivative's bits, so C is shift_gap_derivative(p,
    0, 1.0)'s value and bar; each column of the table is then one array,
    whose float64 arithmetic is Python's.  The base term a k!/x^(k+1) is
    the gap's own power term and the middle is base + g.  The margins are
    the gap itself: (g, C - g) for even k, where C joins the upper side,
    and (g - C, -g) for odd k, where it joins the lower one.  Each margin's
    bar is g's, plus C's on the side that has C, plus the rounding of the
    margin itself.
    """
    if not grid.lo > 1.0:
        raise ValueError(f"bounds hold on x > 1 only, got x={grid.lo!r}")
    xs = np.concatenate(([1.0], grid.generate()))
    blocks = (xs[start:start + _SCAN_BLOCK] for start in range(0, xs.size, _SCAN_BLOCK))
    g, g_err, base = map(np.concatenate,
                         zip(*(_gap_block(p, np.zeros(x.size, np.intp), x) for x in blocks)))
    c, c_err = g[0], g_err[0]
    x, g, g_err, base = xs[1:], g[1:], g_err[1:], base[1:]
    if p.k % 2 == 0:
        lower, upper, lower_margin, upper_margin = base, base + c, g, c - g
        lower_err, upper_err = g_err, g_err + c_err
    else:
        lower, upper, lower_margin, upper_margin = base + c, base, g - c, -g
        lower_err, upper_err = g_err + c_err, g_err
    # BoundCheck's fields in order, as columns of Python floats and bools
    columns = (x, lower, base + g, upper, lower_margin, upper_margin,
               lower_err + _EPS * np.abs(lower_margin), upper_err + _EPS * np.abs(upper_margin),
               (lower_margin > 0.0) & (upper_margin > 0.0))
    return list(map(_row, *(column.tolist() for column in columns)))
