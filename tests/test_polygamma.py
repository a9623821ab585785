"""Engine: known values, functional equation, sign pattern, error estimates."""

from __future__ import annotations

import copy
import dataclasses
import math
import pickle
import re
import sys
from functools import partial

import numpy as np
import pytest

import polycm.cm
from polycm import (
    MAX_ORDER,
    EvalResult,
    factorial_over_power,
    polygamma,
)
from polycm.cm import (
    _ALTERNATING,
    _ORDER_ROWS,
    _POSITIVE_STEPS,
    _ZERO_STEPS,
    _polygamma_array,
    _shift_sum,
)
from polycm.constants import GAMMA_EULER
from polycm.polygamma import (
    _COEFFICIENTS,
    _ORDERS,
    _check_order,
    _check_x,
    _result,
    shift_threshold,
)

# classical closed forms: psi and its derivatives at 1, 1/2 and 2; the zeta
# values -2 zeta(3), -14 zeta(3) and -24 zeta(5) are 40-digit mpmath values
# rounded once
KNOWN_VALUES = [
    (0, 1.0, -GAMMA_EULER),
    (0, 0.5, -GAMMA_EULER - 2.0 * math.log(2.0)),
    (0, 2.0, 1.0 - GAMMA_EULER),
    (1, 1.0, math.pi * math.pi / 6.0),
    (1, 0.5, math.pi * math.pi / 2.0),
    (1, 2.0, math.pi * math.pi / 6.0 - 1.0),
    (2, 1.0, -2.4041138063191885),
    (2, 0.5, -16.82879664423432),
    (3, 1.0, math.pi**4 / 15.0),
    (3, 0.5, math.pi**4),
    (4, 1.0, -24.88626612344088),
]


@pytest.mark.parametrize("n,x,expected", KNOWN_VALUES)
def test_known_closed_forms(n, x, expected):
    r = polygamma(n, x)
    assert r.value == pytest.approx(expected, rel=5e-15, abs=5e-15)
    assert abs(r.value - expected) <= max(r.abs_error_estimate, 4e-15 * abs(expected))


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
    # estimate stays under 1e-12 * max(1, |value|) across the working box,
    # and both are plain floats (a numpy table would leak np.float64)
    for n in range(0, 13):
        for x in np.geomspace(1e-3, 1e6, 28):
            r = polygamma(n, float(x))
            assert type(r.value) is float and type(r.abs_error_estimate) is float
            assert r.abs_error_estimate > 0.0
            assert r.abs_error_estimate <= 1e-12 * max(1.0, abs(r.value)), (n, x)


def test_error_estimate_covers_mpmath_referee():
    # the bar must over-bound the actual error over the whole documented
    # domain, n <= 40 and x in [1e-3, 1e6], judged by a 40-digit referee;
    # the array kernel is held to the same referee on the same grid.  The
    # extra points are where the head's half term, which divides float(n!),
    # would take other bits from the rounded (n-1)! n
    mpmath = pytest.importorskip("mpmath")
    moved = [(28, 35.999), (34, 39.25), (34, 41.999), (34, 42.00000000000001), (34, 63.0)]
    orders = np.append(np.repeat(np.arange(MAX_ORDER + 1), 40), [n for n, _ in moved])
    xs = np.append(np.tile(np.geomspace(1e-3, 1e6, 40), MAX_ORDER + 1), [x for _, x in moved])
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


def test_eval_result_validation():
    for bar in (-1e-30, -math.inf, math.inf, math.nan):
        with pytest.raises(ValueError) as info:
            EvalResult(1.0, bar)
        assert str(info.value) == f"abs_error_estimate must be finite and >= 0, got {bar!r}"
    assert EvalResult(value=3.0, abs_error_estimate=0.5) == EvalResult(3.0, 0.5)
    with pytest.raises(TypeError):
        EvalResult(1.0)


@dataclasses.dataclass(frozen=True)
class _DataclassTwin:
    """What EvalResult was as a frozen dataclass; the hand-written class
    must behave as this one does."""

    value: float
    abs_error_estimate: float


def _as_twin(r):
    return _DataclassTwin(r.value, r.abs_error_estimate)


def _twin_repr(r):
    # the twin's repr with EvalResult's class name
    return repr(_as_twin(r)).replace("_DataclassTwin(", "EvalResult(", 1)


EVAL_RESULTS = [
    EvalResult(1.0, 0.0),
    EvalResult(-2.5, 1e-300),
    EvalResult(math.inf, 0.5),
    EvalResult(-0.0, 5e-324),
    polygamma(0, 0.5),
    polygamma(40, 1e-2),
    _result(1.0, -0.0),
]


class TestEvalResultMatchesFrozenDataclass:
    def test_repr(self):
        for r in EVAL_RESULTS:
            assert repr(r) == _twin_repr(r)
            assert str(r) == repr(r)

    def test_eq_and_hash(self):
        for r in EVAL_RESULTS:
            twin = _as_twin(r)
            for s in EVAL_RESULTS:
                assert (r == s) == (twin == _as_twin(s))
                assert (r != s) == (twin != _as_twin(s))
            assert hash(r) == hash(twin) == hash((r.value, r.abs_error_estimate))
        # the same fields in another class are not equal, in either order
        r = EvalResult(1.0, 0.0)
        assert r.__eq__(_as_twin(r)) is NotImplemented
        assert r != _as_twin(r) and _as_twin(r) != r
        assert r != (1.0, 0.0) and r.__eq__((1.0, 0.0)) is NotImplemented

    def test_vars_and_match_args(self):
        for r in EVAL_RESULTS:
            assert list(vars(r).items()) == list(vars(_as_twin(r)).items())
        assert EvalResult.__match_args__ == _DataclassTwin.__match_args__
        match EvalResult(2.0, 0.25):
            case EvalResult(value, bar):
                assert (value, bar) == (2.0, 0.25)
            case _:
                raise AssertionError("no match")

    def test_pickle_and_copy_round_trip(self):
        for r in EVAL_RESULTS:
            copies = [copy.copy(r), copy.deepcopy(r)]
            copies += [pickle.loads(pickle.dumps(r, protocol))
                       for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            for c in copies:
                assert type(c) is EvalResult and c is not r
                assert list(vars(c)) == list(vars(r))
                assert (c.value.hex(), c.abs_error_estimate.hex()) == (
                    r.value.hex(), r.abs_error_estimate.hex())

    def test_frozen(self):
        for r in (EVAL_RESULTS[0], _as_twin(EVAL_RESULTS[0])):
            for name in ("value", "abs_error_estimate", "other"):
                with pytest.raises(dataclasses.FrozenInstanceError) as info:
                    setattr(r, name, 0.0)
                assert str(info.value) == f"cannot assign to field {name!r}"
                with pytest.raises(dataclasses.FrozenInstanceError) as info:
                    delattr(r, name)
                assert str(info.value) == f"cannot delete field {name!r}"
            assert list(vars(r).items()) == [("value", 1.0), ("abs_error_estimate", 0.0)]


def _raised(f, *args):
    """The type and message of what f(*args) raises."""
    try:
        f(*args)
    except (ArithmeticError, TypeError, ValueError) as e:
        return type(e), str(e)
    raise AssertionError(f"{f.__name__}{args!r} returned")


def test_engine_results_keep_the_public_contract():
    # _result builds its results without the constructor; they must be
    # indistinguishable from the ones the constructor builds
    for r in (polygamma(0, 0.5), polygamma(5, 123.0), _result(-2.5, 0.0), _result(1.0, -0.0)):
        public = EvalResult(r.value, r.abs_error_estimate)
        assert type(r) is EvalResult
        assert r == public and hash(r) == hash(public) and repr(r) == repr(public)
        assert list(vars(r).items()) == list(vars(public).items())
        for field in ("value", "abs_error_estimate"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(r, field, 0.0)
    assert _raised(_result, 1.0, -1.0) == (
        ValueError, "abs_error_estimate must be finite and >= 0, got -1.0"
    )
    assert _raised(_result, math.nan, 1.0) == (
        OverflowError, "result left the binary64 range: nan with error bar 1.0"
    )
    assert _raised(_result, 1.0, math.inf) == (
        OverflowError, "result left the binary64 range: 1.0 with error bar inf"
    )


BAD_ARGUMENTS = [
    (math.nan, "x must be finite, got nan"),
    (math.inf, "x must be finite, got inf"),
    (-math.inf, "x must be finite, got -inf"),
    (0.0, "x must be positive, got 0.0"),
    (-0.0, "x must be positive, got -0.0"),
    (-1e-300, "x must be positive, got -1e-300"),
    (-1.0, "x must be positive, got -1.0"),
    # ints beyond binary64 are rejected as the infinity of their sign
    (10**400, "x must be finite, got inf"),
    (-(10**400), "x must be finite, got -inf"),
]
BAD_ORDERS = [
    (2.0, TypeError, "'float' object cannot be interpreted as an integer"),
    (1.5, TypeError, "'float' object cannot be interpreted as an integer"),
    ("3", TypeError, "'str' object cannot be interpreted as an integer"),
    (-1, ValueError, f"derivative order must be in [0, {MAX_ORDER}], got -1"),
    (MAX_ORDER + 1, ValueError, f"derivative order must be in [0, {MAX_ORDER}], got 41"),
]


@pytest.mark.parametrize("f", [polygamma, factorial_over_power])
@pytest.mark.parametrize("x,message", BAD_ARGUMENTS)
def test_bad_argument_raises_the_checkers_message(f, x, message):
    assert _raised(f, 3, x) == _raised(_check_x, x) == (ValueError, message)


@pytest.mark.parametrize("f", [polygamma, factorial_over_power])
@pytest.mark.parametrize("n,kind,message", BAD_ORDERS)
def test_bad_order_raises_the_checkers_message(f, n, kind, message):
    assert _raised(f, n, 1.0) == _raised(_check_order, n) == (kind, message)
    # the order is checked before the argument
    assert _raised(f, n, math.nan) == (kind, message)


def test_argument_checks_accept_what_the_checkers_accept():
    # the smallest subnormal passes the check; only the value overflows
    assert _raised(polygamma, 3, 5e-324)[0] is OverflowError
    assert factorial_over_power(3, 5e-324) == math.inf
    # 2.0 shifts at every order; 123 is at or above every order's threshold,
    # so the branch that takes no shift step gets the same arguments
    for f in (polygamma, factorial_over_power):
        for x in (2.0, 123.0):
            assert f(True, x) == f(1, x)
            assert f(np.int64(3), x) == f(3, x)
            assert f(3, np.float64(x)) == f(3, x)
        assert f(3, 123) == f(3, 123.0)
    for x in (np.float64(2.0), np.float64(123.0), 123):
        r = polygamma(3, x)
        assert type(r.value) is float and type(r.abs_error_estimate) is float
        assert type(factorial_over_power(3, x)) is float


def test_factorial_over_power_basic():
    assert factorial_over_power(0, 4.0) == 0.25
    assert factorial_over_power(3, 2.0) == 6.0 / 16.0
    assert factorial_over_power(5, 1.0) == 120.0
    assert type(factorial_over_power(5, 1.0)) is float


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
    # finite right up to ln(DBL_MAX) = 709.78, past the old switch at 709
    assert factorial_over_power(0, 1e-308) == 1e308
    assert factorial_over_power(0, 1.2e-308) == pytest.approx(1.0 / 1.2e-308, rel=1e-15)
    assert factorial_over_power(1, 1e-154) == pytest.approx(1e308, rel=1e-15)
    # below e^-745 the quotient is 0.0 without forming the power
    assert factorial_over_power(1, 1e200) == 0.0
    with pytest.raises(ValueError):
        factorial_over_power(2, 0.0)
    with pytest.raises(ValueError):
        factorial_over_power(-1, 1.0)


def _edge(e, target):
    """The least double x > 0 at which libm's x^e (math.pow, the kernel's
    power, with an overflow taken as inf) has reached target."""
    lo, hi = 0, 0x7FEFFFFFFFFFFFFF  # the bit patterns of 0.0 and DBL_MAX
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            p = math.pow(float(np.int64(mid).view(np.float64)), e)
        except OverflowError:
            p = math.inf
        lo, hi = (lo, mid) if (p >= target if e > 0 else p <= target) else (mid, hi)
    return float(np.int64(hi).view(np.float64))


def range_edges(n):
    """Arguments within 4 ulps of order n's range edges: the first shift term
    x^-(n+1) at DBL_MAX/2 and where 8 n! x^-(n+1) overflows; the head powers
    y^-n and y^-(n+2) at 2 DBL_MIN, and y^(n+1) at DBL_MAX/2 and DBL_MAX."""
    huge = sys.float_info.max
    tiny = 2.0 * sys.float_info.min
    edges = [(-(n + 1.0), huge / 2.0), (-(n + 1.0), huge / (8.0 * math.factorial(n))),
             (-(n + 2.0), tiny), (n + 1.0, huge / 2.0), (n + 1.0, huge)]
    if n:
        edges.append((-float(n), tiny))
    xs = []
    for e, target in edges:
        up = down = _edge(e, target)
        xs.append(up)
        for _ in range(4):
            up, down = math.nextafter(up, math.inf), math.nextafter(down, 0.0)
            xs += [up, down]
    return sorted(x for x in set(xs) if 0.0 < x < math.inf)


def _engine_outcome(n, x):
    """[polygamma(*e) for e in zip(n, x)] as the hex of each value and bar,
    or the type and message of the first exception."""
    try:
        results = [polygamma(*e) for e in zip(n, x)]
    except OverflowError as e:
        return type(e).__name__, str(e)
    return [(r.value.hex(), r.abs_error_estimate.hex()) for r in results]


def _kernel_outcome(n, x):
    """_polygamma_array(n, x) in _engine_outcome's form."""
    try:
        values, bars = _polygamma_array(np.array(n, dtype=np.intp), np.array(x, dtype=float))
    except OverflowError as e:
        return type(e).__name__, str(e)
    return [(v.hex(), b.hex()) for v, b in zip(values.tolist(), bars.tolist())]


def test_array_kernel_has_the_scalar_engines_bits():
    # the kernel's outcome is polygamma's, bit for bit and on every numpy
    # CPU dispatch: for every order, on the mpmath referee's grid, log grids
    # to 1e14 and to 1e300, at every shift count and within 4 ulps of the
    # range edges, plus points where numpy's AVX-512 log differs from
    # libm's by an ulp.  Each order's points run in one block, which raises
    # what the first raising point raises, and in one block of those that
    # return; every seventh point and every edge run alone; and the
    # returning points of all orders run in one shuffled block
    returning = []
    for n in range(MAX_ORDER + 1):
        t = shift_threshold(n)
        xs = [*np.geomspace(1e-3, 1e6, 40).tolist(), *np.geomspace(1e-3, 1e14, 60).tolist(),
              *(10.0 ** (-3.0 + 303.0 * i / 399) for i in range(400)),
              *(t - count + u for count in range(int(t) + 1) for u in (1e-3, 0.5, 0.999)),
              1.0856984352915572e104, 0.23097000390556896, 10.507902391927525,
              17.89970295332177, 17.643684916268207]
        edges = range_edges(n)
        xs += edges
        alone = {x: _engine_outcome([n], [x]) for x in xs}
        for x in xs[::7] + edges:
            assert _kernel_outcome([n], [x]) == alone[x], (n, x)
        ok = [x for x in xs if isinstance(alone[x], list)]
        for block in (xs, ok):
            orders = [n] * len(block)
            assert _kernel_outcome(orders, block) == _engine_outcome(orders, block), n
        # both outcomes occur at every order, the range edges' raises included
        assert 0 < len(ok) < len(xs), n
        returning += [(n, x) for x in ok]
    n, x = zip(*(returning[i] for i in np.random.default_rng(30).permutation(len(returning))))
    assert _kernel_outcome(n, x) == _engine_outcome(n, x)


def test_array_kernel_matches_scalar_engine():
    # over every input of n = 0..40 x 60 log points in [1e-3, 1e14] plus
    # x = 1e300 on which the scalar engine does not raise, range edges
    # included, the kernel's values and bars in one order-major block are
    # the engine's, hex for hex; so each value lies within the two bars of
    # the scalar value, and each bar is the scalar bar
    pairs = [(n, x) for n in range(MAX_ORDER + 1)
             for x in [*np.geomspace(1e-3, 1e14, 60).tolist(), 1e300]
             if isinstance(_engine_outcome([n], [x]), list)]
    n, x = zip(*pairs)
    assert _kernel_outcome(n, x) == _engine_outcome(n, x)


def test_array_kernel_order_zero_has_the_scalar_engines_bits():
    # order 0 runs polygamma's n = 0 steps over whole arrays, with libm's
    # log, so its values and bars are polygamma's bit for bit: on a log
    # grid, at points where numpy's AVX-512 log differs from libm's by an
    # ulp, at 10 - ulp and within 2 ulps of every integer shift boundary
    xs = np.geomspace(1e-3, 1e300, 400).tolist() + [
        1.0856984352915572e104, 0.23097000390556896, 10.507902391927525,
        17.89970295332177, 17.643684916268207,
    ]
    for j in range(1, 11):
        up = down = float(j)
        xs.append(up)
        for _ in range(2):
            up, down = math.nextafter(up, math.inf), math.nextafter(down, 0.0)
            xs += [up, down]
    assert math.nextafter(10.0, 0.0) in xs
    values, bars = _polygamma_array(np.zeros(len(xs), dtype=np.intp), np.array(xs))
    for x, v, b in zip(xs, values.tolist(), bars.tolist()):
        r = polygamma(0, x)
        assert (v.hex(), b.hex()) == (r.value.hex(), r.abs_error_estimate.hex()), x
    # around x = 1/DBL_MAX, below which 1/x overflows and polygamma raises,
    # in blocks that mix n = 0 and n >= 1 elements: each raises what its
    # first raising element raises, an order-0 one or the (40, 1e-8) shift
    # term, or returns polygamma's bits
    edge = up = down = 1.0 / sys.float_info.max
    tiny = [edge, 5e-324, 1e-310, 1e-300]
    for _ in range(4):
        up, down = math.nextafter(up, math.inf), math.nextafter(down, 0.0)
        tiny += [up, down]
    raising = [x for x in tiny if isinstance(_engine_outcome([0], [x]), tuple)]
    assert 0 < len(raising) < len(tiny)
    for x in tiny:
        for block in (([0, 3, 0, 40, 0], [0.25, 2.5, x, 1e-8, 7.0]),
                      ([3, 40, 0, 0], [2.5, 1e-8, x, 7.0]),
                      ([1, 0, 0, 2], [0.5, 2.0 * x, x, 11.0]),
                      ([0, 5], [x, 3.0])):
            assert _kernel_outcome(*block) == _engine_outcome(*block), (x, block)


def test_array_kernel_raises_where_the_engine_raises():
    # an overflowing head power y^(n+1) (28, 1.2e11), an overflowing shift
    # term (40, 1e-8), an infinite value and bar (40, 1e-7) and an infinite
    # digamma shift term (0, 1e-310): the scalar engine raises OverflowError
    # for each, naming its own n and x, and the kernel raises the first of
    # them in index order: its message, not that of the (40, 1e-7) after it
    for n, x in ((28, 122322200237.42154), (40, 1e-8), (40, 1e-7), (0, 1e-310)):
        match = "^" + re.escape(f"psi_{n}({x!r}) left the binary64 range") + "$"
        with pytest.raises(OverflowError, match=match):
            polygamma(n, x)
        with pytest.raises(OverflowError, match=match):
            _polygamma_array(np.array([3, n, 40]), np.array([2.5, x, 1e-7]))


def _recorded_kernel(monkeypatch, n, x):
    """_kernel_outcome(n, x), and the (n, x) of each call it makes to
    polygamma, which the kernel looks up in polycm.cm."""
    calls = []
    monkeypatch.setattr(polycm.cm, "polygamma",
                        lambda m, xm: calls.append((m, xm)) or polygamma(m, xm))
    return _kernel_outcome(n, x), calls


def test_array_kernel_calls_polygamma_only_on_its_first_raising_element(monkeypatch):
    # blocks of one order and blocks that mix n = 0 and n >= 1 elements: a
    # block whose elements all return makes no scalar call, and a raising
    # block makes one, on its first raising element, whose message it raises
    returning = [([5], [3.0]), ([0] * 3, [1e-3, 10.0, 1e300]),
                 ([0, 3, 40, 0, 28], [0.25, 2.5, 32768107.6, 1e300, 4e10]),
                 ([28, 0, 40], [4e10, 1e-300, 1e-3])]
    raising = [(([0, 3, 0, 40, 0], [0.25, 2.5, 1e-310, 1e-8, 7.0]), (0, 1e-310)),
               (([3, 40, 0, 0], [2.5, 1e-8, 1e-310, 7.0]), (40, 1e-8)),
               (([1, 0, 28, 0], [0.5, 2.0, 122322200237.42154, 1e-310]),
                (28, 122322200237.42154)),
               (([40] * 3, [1e-3, 1e-7, 1e-8]), (40, 1e-7))]
    for n, x in returning:
        outcome, calls = _recorded_kernel(monkeypatch, n, x)
        assert outcome == _engine_outcome(n, x) and isinstance(outcome, list), (n, x)
        assert calls == [], (n, x)
    for (n, x), first in raising:
        outcome, calls = _recorded_kernel(monkeypatch, n, x)
        assert outcome == ("OverflowError", f"psi_{first[0]}({first[1]!r}) left the binary64 range")
        assert outcome == _engine_outcome(n, x)
        assert calls == [first], (n, x)


def test_array_kernel_asserts_when_polygamma_returns_on_an_infinite_bar(monkeypatch):
    # the kernel's bar is not finite only where polygamma raises; should
    # polygamma return there, the kernel names the element
    positive_orders = polycm.cm._positive_orders

    def broken(n, x):
        values, bars = positive_orders(n, x)
        bars[1] = math.inf
        return values, bars

    monkeypatch.setattr(polycm.cm, "_positive_orders", broken)
    match = "^" + re.escape("polygamma(3, 2.5) returned where the array kernel's bar is inf") + "$"
    with pytest.raises(AssertionError, match=match):
        _polygamma_array(np.array([0, 5, 3, 40]), np.array([1.0, 2.0, 2.5, 1e-8]))


def _power_edge(n):
    """The largest double x at which x ** (n + 1) does not overflow."""
    def overflows(x):
        try:
            x ** (n + 1.0)
        except OverflowError:
            return True
        return False

    x = 2.0 ** (1024.0 / (n + 1))
    while overflows(x):
        x = math.nextafter(x, 0.0)
    while not overflows(math.nextafter(x, math.inf)):
        x = math.nextafter(x, math.inf)
    return x


def test_array_kernel_returns_up_to_the_head_powers_overflow(monkeypatch):
    # for every n >= 1, x in (2^(1021/(n+2)), the last x at which y^(n+1)
    # is finite]: y^-(n+2) is below 2 DBL_MIN, even below 2^-1023 from
    # 2^(1023/(n+2)) on, and polygamma returns.  At both ends and at
    # 2^(1023/(n+2)), within 3 ulps, and at 16 log points between, each
    # alone and those that return in one block, the kernel gives
    # polygamma's bits with no scalar call; the next double above the
    # window raises polygamma's message.  (40, 32768107.6), whose head
    # term drops out and whose value is far outside its bar, is among
    # them: the kernel returns polygamma's bits there too
    for n in range(1, MAX_ORDER + 1):
        low, top = 2.0 ** (1021.0 / (n + 2)), _power_edge(n)
        xs = [low * (top / low) ** (i / 17) for i in range(1, 17)]
        for centre in (low, 2.0 ** (1023.0 / (n + 2)), top):
            up = down = centre
            xs.append(centre)
            for _ in range(3):
                up, down = math.nextafter(up, math.inf), math.nextafter(down, 0.0)
                xs += [up, down]
        if n == 40:
            xs.append(32768107.6)
        inside = [x for x in xs if low < x <= top]
        for x in xs:
            outcome, calls = _recorded_kernel(monkeypatch, [n], [x])
            assert outcome == _engine_outcome([n], [x]), (n, x)
            assert isinstance(outcome, list) == (x <= top), (n, x)
            assert calls == ([] if x <= top else [(n, x)]), (n, x)
        outcome, calls = _recorded_kernel(monkeypatch, [n] * len(inside), inside)
        assert outcome == _engine_outcome([n] * len(inside), inside) and calls == [], n
        above = math.nextafter(top, math.inf)
        assert _kernel_outcome([n], [above]) == (
            "OverflowError", f"psi_{n}({above!r}) left the binary64 range"), n


def _fold_stop(n, x):
    """The step at which polygamma's fold for order n >= 1 stops at x: the
    first j whose term leaves the running sum unchanged, or the shift count."""
    count = math.ceil(shift_threshold(n) - x)
    acc = 0.0
    for j in range(count):
        total = acc + (x + j) ** -(n + 1.0)
        if total == acc:
            return j
        acc = total
    return count


def test_shift_cap_holds_every_step_the_fold_adds():
    # the kernel forms the steps j < floor(x r) + 2 of its shift
    # count; wherever that cap binds, the scalar fold must have stopped by
    # then.  Points below every threshold: a log grid from where x^-(n+1)
    # nears overflow, a linear grid, and each x at which the cap steps up,
    # with its 3-ulp neighbours; at those, in one block per order, the
    # kernel's values and bars are also polygamma's, bit for bit
    checked = 0
    for n in range(1, MAX_ORDER + 1):
        t = shift_threshold(n)
        cap_rate = _ORDERS[n][1]  # r = 2^(54/(n+1)) - 1, the kernel's own float
        ups = []
        for m in range(1, int(t)):
            up = down = m / cap_rate
            ups.append(up)
            for _ in range(3):
                up, down = math.nextafter(up, math.inf), math.nextafter(down, 0.0)
                ups += [up, down]
        xs = np.concatenate((np.geomspace(10.0 ** (-300.0 / (n + 1)), t, 4000)[:-1],
                             np.linspace(0.0, t, 4000)[1:-1], ups))
        caps = np.floor(xs * cap_rate) + 2.0
        binds = caps < np.ceil(t - xs)
        for x, cap in zip(xs[binds].tolist(), caps[binds].tolist()):
            try:
                stop = _fold_stop(n, x)
            except OverflowError:
                continue
            assert stop <= cap, (n, x, stop, cap)
            checked += 1
        edge = [x for x, b in zip(ups, binds[-len(ups):].tolist())
                if b and isinstance(_engine_outcome([n], [x]), list)]
        assert edge, n
        assert _kernel_outcome([n] * len(edge), edge) == _engine_outcome([n] * len(edge), edge), n
    assert checked > 100_000


def _shift_blocks():
    """(x, steps) blocks for the shift sum: 0, 1, 2 and many elements with
    steps, 1 to 48 of them, among elements with none, the counts in
    ascending, descending and shuffled order."""
    rng = np.random.default_rng(20261020)
    counts = np.arange(1.0, 49.0)
    blocks = [np.zeros(0), np.zeros(3)]
    for c in counts:
        blocks += [np.array([c]), np.array([0.0, c, 0.0]), np.array([c, 49.0 - c])]
    for order in (counts, counts[::-1], rng.permutation(counts)):
        blocks.append(order)
        blocks.append(np.insert(order, rng.integers(0, 49, 20), 0.0))
    return [(rng.uniform(0.5, 20.0, steps.size), steps) for steps in blocks]


def test_shift_sum_adds_each_elements_steps_in_order():
    # the kernel's shift pass is the scalar fold, acc += term for j in
    # order from 0.0, on every element, whatever the other elements of its
    # block and their order, for both term forms: 1/(x+j) and
    # (x+j)^-(n+1) with an exponent per element
    divide = partial(np.divide, 1.0)
    for x, steps in _shift_blocks():
        exponent = -np.random.default_rng(steps.size).integers(2, 42, x.size).astype(float)
        expected = {"divide": [], "power": []}
        for xi, si, ei in zip(x.tolist(), steps.tolist(), exponent.tolist()):
            ys = [xi + j for j in range(int(si))]
            for form, terms in (("divide", [1.0 / y for y in ys]), ("power", [y**ei for y in ys])):
                acc = 0.0
                for term in terms:
                    acc += term
                expected[form].append(acc.hex())
        got = {"divide": _shift_sum(x, steps, divide),
               "power": _shift_sum(x, steps, np.float_power, exponent)}
        for form, values in got.items():
            assert [v.hex() for v in values.tolist()] == expected[form], (form, steps.tolist())


def test_series_terms_shrink_from_the_shift_threshold_on():
    # the premise of the negligible-term stop: at y >= shift_threshold(n)
    # each term is below the one before (at most 0.4575 of it), so the full
    # sum's truncation bound is smaller than the first negligible term
    for n, row in enumerate(_COEFFICIENTS):
        for j in range(20):
            ratio = abs(row[j + 1] / row[j]) / shift_threshold(n) ** 2
            assert ratio < 0.4575, (n, j, ratio)


def test_series_coefficient_signs_depend_only_on_the_term():
    # the premise of the kernel's four-call series step: budget + |t| is
    # budget + t or budget - t by the sign of t's coefficient, which one
    # step tuple fixes per term for every order n >= 1 and another for
    # n = 0, where digamma's minus sign flips every coefficient
    for n, row in enumerate(_COEFFICIENTS):
        steps = _ZERO_STEPS if n == 0 else _POSITIVE_STEPS
        assert len(steps) == 20
        for j, step in enumerate(steps):
            same = (row[j] > 0.0) == (_COEFFICIENTS[1][j] > 0.0)
            assert same == (n >= 1), (n, j)
            assert step is (np.add if row[j] > 0.0 else np.subtract), (n, j)


def test_order_table_columns_are_their_definitions():
    # polygamma reads every per-order float from its row of _ORDERS and the
    # n >= 1 kernel gathers each from one column of _ORDER_ROWS, that table
    # transposed; each column is pinned here to its definition, bit for bit.
    # (n-1)! and n! are exact integers rounded once: the product of the
    # rounded (n-1)! and n is not n! at n = 28, 31 and 34, so a head that
    # formed its n! that way would differ there
    for n in range(MAX_ORDER + 1):
        fact_nm1 = math.factorial(n - 1) if n else 0
        expected = [shift_threshold(n), 2.0 ** (54.0 / (n + 1)) - 1.0, -(n + 1), n + 1,
                    -(n + 2), -n, fact_nm1, math.factorial(n), (-1) ** (n + 1)]
        assert [v.hex() for v in _ORDERS[n]] == [float(e).hex() for e in expected], n
        assert [v.hex() for v in _ORDER_ROWS[:, n].tolist()] == [v.hex() for v in _ORDERS[n]], n
        assert _ALTERNATING[n] == (-1) ** n
    assert _ORDER_ROWS.shape == (9, MAX_ORDER + 1)