"""Two-sided bounds and the endpoint constants behind them."""

from __future__ import annotations

import math

import pytest

import polycm.bounds
import polycm.cm
from polycm import (
    EvalResult,
    GridSpec,
    LN2,
    PI,
    SeriesSpec,
    ShiftParams,
    bound_check,
    bound_table,
    digamma_series,
    endpoint_constants,
    gap_integral_even,
    gap_integral_odd,
    shift_gap_derivative,
    zeta_int,
)

BIG = SeriesSpec(max_terms=4_000_000)


class TestEvenBounds:
    def test_reference_point(self):
        # a=1/2, k=0, x=2: lower is 1/4, middle is psi(5/2) - psi(2)
        # = 5/3 - 2 ln 2, upper adds the endpoint constant 3/2 - 2 ln 2
        r = bound_check(ShiftParams(a=0.5, k=0), 2.0)
        assert r.lower == 0.25
        assert r.middle == pytest.approx(5.0 / 3.0 - 2.0 * LN2, abs=1e-13)
        assert r.upper == pytest.approx(0.25 + 1.5 - 2.0 * LN2, abs=1e-12)
        assert r.passed
        assert r.lower_margin > 0.0 and r.upper_margin > 0.0
        assert r.lower_margin == r.middle - r.lower
        assert r.upper_margin == r.upper - r.middle

    def test_middle_against_series_oracle(self):
        r = bound_check(ShiftParams(a=0.5, k=0), 2.0)
        hi = digamma_series(2.5, BIG)
        lo = digamma_series(2.0, BIG)
        bar = hi.abs_error_estimate + lo.abs_error_estimate + 1e-13
        assert abs(r.middle - (hi.value - lo.value)) <= bar

    def test_rejects(self):
        with pytest.raises(ValueError):
            bound_check(ShiftParams(a=0.5, k=0), 1.0)
        with pytest.raises(ValueError):
            bound_check(ShiftParams(a=0.5, k=0), 0.5)


class TestOddBounds:
    def test_reference_point(self):
        # a=1/2, k=1, x=2: middle is psi_1(5/2) - psi_1(2) = pi^2/3 - 31/9,
        # the endpoint constant is pi^2/3 - 9/2 and the base is 1/8
        r = bound_check(ShiftParams(a=0.5, k=1), 2.0)
        assert r.upper == 0.125
        assert r.middle == pytest.approx(PI * PI / 3.0 - 31.0 / 9.0, abs=1e-13)
        assert r.lower == pytest.approx(0.125 + PI * PI / 3.0 - 4.5, abs=1e-11)
        assert r.passed


class TestEndpointConstants:
    # the four classical closed forms at a = 1/2
    REFERENCES = [
        (0, 1.5 - 2.0 * LN2, 1e-12),
        (1, PI * PI / 3.0 - 4.5, 1e-11),
        (2, 15.0 - 12.0 * zeta_int(3), 1e-11),
        (3, 14.0 * PI**4 / 15.0 - 99.0, 1e-10),
    ]

    @pytest.mark.parametrize("k,expected,tol", REFERENCES)
    def test_reference_values(self, k, expected, tol):
        value = endpoint_constants(ShiftParams(a=0.5, k=k))
        assert abs(value - expected) <= tol

    @pytest.mark.parametrize("k", range(0, 9))
    @pytest.mark.parametrize("a", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_two_routes_agree(self, a, k):
        # the direct route against the quadrature of the gap's integral form
        # at x = 1, negated for odd k, which uses no polygamma value
        p = ShiftParams(a=a, k=k)
        direct = shift_gap_derivative(p, 0, 1.0).value
        quad = gap_integral_even(a, k, 1.0).value if k % 2 == 0 else -gap_integral_odd(a, k, 1.0).value
        assert abs(direct - quad) <= 1e-11 * max(1.0, abs(direct))

    @pytest.mark.parametrize("a,k", [(0.01, 30), (0.5, 2)])
    def test_cross_check_catches_a_wrong_constant_for_small_a(self, monkeypatch, a, k):
        # a direct route off by one part in a million must be caught where C
        # is huge (C ~ 6.8e31 at a = 0.01, k = 30) and on the constants
        # verb's path (a = 0.5, k = 2)
        p = ShiftParams(a=a, k=k)
        assert endpoint_constants(p) == shift_gap_derivative(p, 0, 1.0).value
        direct = polycm.bounds.shift_gap_derivative

        def skewed(p, n, x):
            r = direct(p, n, x)
            return EvalResult(r.value * (1.0 + 1e-6), r.abs_error_estimate)

        monkeypatch.setattr(polycm.bounds, "shift_gap_derivative", skewed)
        with pytest.raises(ArithmeticError):
            endpoint_constants(p)

    def test_sign_by_parity(self):
        for a in (0.2, 0.5, 0.8):
            for k in (0, 2, 4):
                assert endpoint_constants(ShiftParams(a=a, k=k)) > 0.0
            for k in (1, 3, 5):
                assert endpoint_constants(ShiftParams(a=a, k=k)) < 0.0


class TestBoundTable:
    def test_shape_and_margins(self):
        grid = GridSpec(lo=1.001, hi=1000.0, points=40)
        for p in (ShiftParams(a=0.5, k=2), ShiftParams(a=0.5, k=3)):
            rows = bound_table(p, grid)
            assert len(rows) == 40
            assert all(b.x > a.x for a, b in zip(rows, rows[1:]))
            for r in rows:
                assert r.passed
                assert r.lower < r.middle < r.upper
                assert r.lower_margin > 10.0 * r.lower_margin_error
                assert r.upper_margin > 10.0 * r.upper_margin_error

    def test_upper_margin_collapses_toward_one(self):
        # the even chain degenerates to equality at x = 1, so just above it
        # the margin is positive but tiny
        r = bound_check(ShiftParams(a=0.5, k=0), 1.0 + 1e-6)
        assert 0.0 < r.upper_margin < 1e-5
        assert r.upper_margin > 10.0 * r.upper_margin_error

    def test_rejects_grid_reaching_one(self):
        with pytest.raises(ValueError):
            bound_table(ShiftParams(a=0.5, k=2), GridSpec(lo=0.9, hi=10.0, points=5))

    def test_endpoint_constant_is_computed_once_per_table(self, monkeypatch):
        # two engine calls per row for the gap, plus two for C(a, k), which
        # does not depend on x; rows and C alike go through cm's gap, so
        # through cm's copy of the engine
        calls = []
        engine = polycm.bounds.polygamma

        def counted(n, x):
            calls.append((n, x))
            return engine(n, x)

        monkeypatch.setattr(polycm.bounds, "polygamma", counted)
        monkeypatch.setattr(polycm.cm, "polygamma", counted)
        grid = GridSpec(lo=1.5, hi=500.0, points=25)
        bound_table(ShiftParams(a=0.3, k=1), grid)
        assert len(calls) == 2 * grid.points + 2

    @pytest.mark.parametrize("a,k", [(0.3, 3), (0.3, 2), (0.5, 0), (0.9, 1), (0.05, 12)])
    def test_margins_are_the_gap(self, a, k):
        # the margins are g and C - g for even k, g - C and -g for odd k,
        # with g and C taken from the gap function itself
        p = ShiftParams(a=a, k=k)
        c = shift_gap_derivative(p, 0, 1.0).value
        for r in bound_table(p, GridSpec(lo=1.001, hi=1000.0, points=50)):
            g = shift_gap_derivative(p, 0, r.x).value
            expected = (g, c - g) if k % 2 == 0 else (g - c, -g)
            assert (r.lower_margin, r.upper_margin) == expected

    @pytest.mark.parametrize("k", [2, 3])
    def test_bound_check_matches_table_row(self, k):
        p = ShiftParams(a=0.3, k=k)
        rows = bound_table(p, GridSpec(lo=1.5, hi=500.0, points=25))
        for row in (rows[0], rows[12], rows[-1]):
            assert bound_check(p, row.x) == row
