"""Engine: known values, functional equation, sign pattern, error estimates."""

from __future__ import annotations

import math

import numpy as np
import pytest

from polycm import (
    GAMMA_EULER,
    LN2,
    MAX_ORDER,
    PI,
    EvalResult,
    digamma,
    factorial_over_power,
    polygamma,
    shift_threshold,
    zeta_int,
)
from polycm.polygamma import _polygamma_array

# classical closed forms: psi and its derivatives at 1, 1/2 and 2
KNOWN_VALUES = [
    (0, 1.0, -GAMMA_EULER),
    (0, 0.5, -GAMMA_EULER - 2.0 * LN2),
    (0, 2.0, 1.0 - GAMMA_EULER),
    (1, 1.0, PI * PI / 6.0),
    (1, 0.5, PI * PI / 2.0),
    (1, 2.0, PI * PI / 6.0 - 1.0),
    (2, 1.0, -2.0 * zeta_int(3)),
    (2, 0.5, -14.0 * zeta_int(3)),
    (3, 1.0, PI**4 / 15.0),
    (3, 0.5, PI**4),
    (4, 1.0, -24.0 * zeta_int(5)),
]


@pytest.mark.parametrize("n,x,expected", KNOWN_VALUES)
def test_known_closed_forms(n, x, expected):
    r = polygamma(n, x)
    assert r.value == pytest.approx(expected, rel=5e-15, abs=5e-15)
    assert abs(r.value - expected) <= max(r.abs_error_estimate, 4e-15 * abs(expected))


def test_digamma_alias():
    assert digamma(3.7) == polygamma(0, 3.7)


@pytest.mark.parametrize("n", range(0, 11))
def test_functional_equation(n):
    # psi_n(x+1) - psi_n(x) = (-1)^n n! / x^(n+1), the defining recurrence
    fact = float(math.factorial(n))
    sign = 1.0 if n % 2 == 0 else -1.0
    for x in np.geomspace(1e-2, 1e4, 25):
        x = float(x)
        lhs = polygamma(n, x + 1.0).value - polygamma(n, x).value
        rhs = sign * fact / x ** (n + 1)
        scale = 1.0 + abs(polygamma(n, x).value)
        assert abs(lhs - rhs) <= 1e-11 * scale, (n, x)


@pytest.mark.parametrize("n", range(1, 13))
def test_sign_pattern_and_decay(n):
    xs = np.geomspace(1e-2, 1e4, 9)
    sign = 1.0 if n % 2 == 1 else -1.0
    mags = []
    for x in xs:
        v = polygamma(n, float(x)).value
        assert math.copysign(1.0, v) == sign, (n, x, v)
        mags.append(abs(v))
    # |psi_n| is strictly decreasing in x
    assert all(a > b for a, b in zip(mags, mags[1:]))


def test_digamma_increasing():
    xs = np.geomspace(1e-2, 1e4, 30)
    vals = [polygamma(0, float(x)).value for x in xs]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_error_estimate_contract():
    # estimate stays under 1e-12 * max(1, |value|) across the working box
    for n in range(0, 13):
        for x in np.geomspace(1e-3, 1e6, 28):
            r = polygamma(n, float(x))
            assert r.abs_error_estimate > 0.0
            assert r.abs_error_estimate <= 1e-12 * max(1.0, abs(r.value)), (n, x)


def test_error_estimate_covers_mpmath_referee():
    # the bar must over-bound the actual error over the whole documented
    # domain, n <= 40 and x in [1e-3, 1e6], judged by a 40-digit referee;
    # the array kernel is held to the same referee on the same grid
    mpmath = pytest.importorskip("mpmath")
    orders = np.repeat(np.arange(MAX_ORDER + 1), 40)
    xs = np.tile(np.geomspace(1e-3, 1e6, 40), MAX_ORDER + 1)
    values, bars = _polygamma_array(orders, xs)
    with mpmath.workdps(40):
        for n, x, v, b in zip(orders.tolist(), xs.tolist(), values.tolist(), bars.tolist()):
            truth = mpmath.polygamma(n, mpmath.mpf(x))
            r = polygamma(n, x)
            err = abs(mpmath.mpf(r.value) - truth)
            assert err <= r.abs_error_estimate, (n, x, float(err))
            err = abs(mpmath.mpf(v) - truth)
            assert err <= b, (n, x, float(err))


def test_error_estimate_covers_known_truth():
    for n, x, expected in KNOWN_VALUES:
        r = polygamma(n, x)
        # the closed form itself is rounded, so allow one ulp of the target
        assert abs(r.value - expected) <= r.abs_error_estimate + 2.0 * math.ulp(abs(expected))


def test_shift_threshold_values():
    assert shift_threshold(0) == 10.0
    assert shift_threshold(2) == 10.0
    assert shift_threshold(12) == 20.0
    assert shift_threshold(40) == 48.0


def test_large_x_uses_asymptotic_directly():
    # above the threshold no shifting happens and accuracy holds to 1e6
    r = polygamma(1, 1e6)
    # psi_1(x) ~ 1/x + 1/(2x^2) + 1/(6x^3)
    approx = 1e-6 + 0.5e-12 + 1.0 / 6.0 * 1e-18
    assert r.value == pytest.approx(approx, rel=1e-13)


def test_rejects_bad_order():
    with pytest.raises(ValueError):
        polygamma(-1, 1.0)
    with pytest.raises(ValueError):
        polygamma(MAX_ORDER + 1, 1.0)
    with pytest.raises(TypeError):
        polygamma(1.5, 1.0)


@pytest.mark.parametrize("x", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_rejects_bad_argument(x):
    with pytest.raises(ValueError):
        polygamma(1, x)


def test_eval_result_validation():
    with pytest.raises(ValueError):
        EvalResult(1.0, -1e-30)
    with pytest.raises(ValueError):
        EvalResult(1.0, math.nan)


def test_factorial_over_power_basic():
    assert factorial_over_power(0, 4.0) == 0.25
    assert factorial_over_power(3, 2.0) == 6.0 / 16.0
    assert factorial_over_power(5, 1.0) == 120.0


def test_factorial_over_power_extremes():
    # log-space fallback at both ends of the binary64 range
    assert factorial_over_power(30, 1e-9) == math.inf
    small = factorial_over_power(30, 1e9)
    assert 0.0 < small < 1e-240
    assert small == pytest.approx(
        math.exp(math.lgamma(31.0) - 31.0 * math.log(1e9)), rel=1e-12
    )
    mid = factorial_over_power(40, 1e8)
    assert 0.0 < mid < 1e-200
    with pytest.raises(ValueError):
        factorial_over_power(2, 0.0)
    with pytest.raises(ValueError):
        factorial_over_power(-1, 1.0)


def test_array_kernel_matches_scalar_engine():
    # every element within the two bars of the scalar value, over every
    # input of n = 0..40 x 60 log points in [1e-3, 1e14] plus x = 1e300
    # on which the scalar engine does not raise, range edges included
    pairs = []
    for n in range(MAX_ORDER + 1):
        for x in [*np.geomspace(1e-3, 1e14, 60).tolist(), 1e300]:
            try:
                pairs.append((n, x, polygamma(n, x)))
            except (OverflowError, ValueError):
                pass
    values, bars = _polygamma_array(np.array([n for n, _, _ in pairs]),
                                    np.array([x for _, x, _ in pairs]))
    for (n, x, r), v, b in zip(pairs, values.tolist(), bars.tolist()):
        assert abs(v - r.value) <= b + r.abs_error_estimate, (n, x)
        assert b == pytest.approx(r.abs_error_estimate, rel=1e-6), (n, x)


def test_array_kernel_raises_where_the_engine_raises():
    # a subnormal head power (28, 1.2e11), an overflowing shift term
    # (40, 1e-8) and an infinite bar (40, 1e-7): the scalar engine raises
    # OverflowError, OverflowError and ValueError, and the kernel raises
    # the first of them in index order
    for n, x, error in ((28, 122322200237.42154, OverflowError),
                        (40, 1e-8, OverflowError), (40, 1e-7, ValueError)):
        with pytest.raises(error):
            polygamma(n, x)
        with pytest.raises(error):
            _polygamma_array(np.array([3, n, 40]), np.array([2.5, x, 1e-7]))
