"""Two-sided bounds and the endpoint constants behind them."""

from __future__ import annotations

import dataclasses
import math

import pytest

import polycm.bounds
import polycm.cm
import polycm.oracle
from polycm import (
    BoundCheck,
    EvalResult,
    GridSpec,
    SeriesSpec,
    ShiftParams,
    bound_table,
    digamma_series,
    endpoint_constants,
    gap_integral_even,
    gap_integral_odd,
    shift_gap_derivative,
)

BIG = SeriesSpec(max_terms=4_000_000)


def row_at(p, x):
    """The bound_table row at x: the first row of a two-point grid from x."""
    row = bound_table(p, GridSpec(lo=x, hi=2.0 * x, points=2))[0]
    assert row.x == x
    return row


class TestEvenBounds:
    def test_reference_point(self):
        # a=1/2, k=0, x=2: lower is 1/4, middle is psi(5/2) - psi(2)
        # = 5/3 - 2 ln 2, upper adds the endpoint constant 3/2 - 2 ln 2
        r = row_at(ShiftParams(a=0.5, k=0), 2.0)
        assert r.lower == 0.25
        assert r.middle == pytest.approx(5.0 / 3.0 - 2.0 * math.log(2.0), abs=1e-13)
        assert r.upper == pytest.approx(0.25 + 1.5 - 2.0 * math.log(2.0), abs=1e-12)
        assert r.passed
        assert r.lower_margin > 0.0 and r.upper_margin > 0.0
        assert r.lower_margin == r.middle - r.lower
        assert r.upper_margin == r.upper - r.middle

    def test_middle_against_series_oracle(self):
        r = row_at(ShiftParams(a=0.5, k=0), 2.0)
        hi = digamma_series(2.5, BIG)
        lo = digamma_series(2.0, BIG)
        bar = hi.abs_error_estimate + lo.abs_error_estimate + 1e-13
        assert abs(r.middle - (hi.value - lo.value)) <= bar

    def test_rejects(self):
        with pytest.raises(ValueError, match=r"^bounds hold on x > 1 only, got x=1\.0$"):
            row_at(ShiftParams(a=0.5, k=0), 1.0)
        with pytest.raises(ValueError, match=r"^bounds hold on x > 1 only, got x=0\.5$"):
            row_at(ShiftParams(a=0.5, k=0), 0.5)


class TestOddBounds:
    def test_reference_point(self):
        # a=1/2, k=1, x=2: middle is psi_1(5/2) - psi_1(2) = pi^2/3 - 31/9,
        # the endpoint constant is pi^2/3 - 9/2 and the base is 1/8
        r = row_at(ShiftParams(a=0.5, k=1), 2.0)
        assert r.upper == 0.125
        assert r.middle == pytest.approx(math.pi * math.pi / 3.0 - 31.0 / 9.0, abs=1e-13)
        assert r.lower == pytest.approx(0.125 + math.pi * math.pi / 3.0 - 4.5, abs=1e-11)
        assert r.passed


class TestEndpointConstants:
    # the four classical closed forms at a = 1/2; 15 - 12 zeta(3) is the
    # 40-digit mpmath value rounded once
    REFERENCES = [
        (0, 1.5 - 2.0 * math.log(2.0), 1e-12),
        (1, math.pi * math.pi / 3.0 - 4.5, 1e-11),
        (2, 0.5753171620848686, 1e-11),
        (3, 14.0 * math.pi**4 / 15.0 - 99.0, 1e-10),
    ]

    @pytest.mark.parametrize("k,expected,tol", REFERENCES)
    def test_reference_values(self, k, expected, tol):
        value = endpoint_constants(ShiftParams(a=0.5, k=k)).value
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
        assert endpoint_constants(p) == shift_gap_derivative(p, 0, 1.0)
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
                assert endpoint_constants(ShiftParams(a=a, k=k)).value > 0.0
            for k in (1, 3, 5):
                assert endpoint_constants(ShiftParams(a=a, k=k)).value < 0.0

    def test_quadrature_is_looked_up_on_the_oracle_module(self, monkeypatch):
        # the cross-check calls the oracle's gap integrals through the
        # module, so a wrapper set on polycm.oracle (a tracer's) sees them
        calls = []
        for name in ("gap_integral_even", "gap_integral_odd"):
            inner = getattr(polycm.oracle, name)

            def recording(a, k, x, name=name, inner=inner):
                calls.append((name, a, k, x))
                return inner(a, k, x)

            monkeypatch.setattr(polycm.oracle, name, recording)
        even = endpoint_constants(ShiftParams(a=0.5, k=2))
        odd = endpoint_constants(ShiftParams(a=0.5, k=3))
        assert calls == [("gap_integral_even", 0.5, 2, 1.0), ("gap_integral_odd", 0.5, 3, 1.0)]
        assert even.value > 0.0 > odd.value


class TestBoundTable:
    def test_shape_and_margins(self):
        grid = GridSpec(lo=1.001, hi=1000.0, points=40)
        for p in (ShiftParams(a=0.5, k=2), ShiftParams(a=0.5, k=3)):
            rows = bound_table(p, grid)
            assert len(rows) == 40
            assert all(b.x > a.x for a, b in zip(rows, rows[1:]))
            for r in rows:
                # plain Python types, as verify-bounds --format json needs:
                # json.dumps rejects numpy's bool
                assert [type(v) for v in vars(r).values()] == [float] * 8 + [bool]
                assert r.passed
                assert r.lower < r.middle < r.upper
                assert r.lower_margin > 10.0 * r.lower_margin_error
                assert r.upper_margin > 10.0 * r.upper_margin_error

    @pytest.mark.parametrize("k", [2, 3])
    def test_rows_are_bound_checks(self, k):
        # rows are built field by field, not through BoundCheck's generated
        # __init__, and must keep what it gives: every field set, in
        # declaration order, so that they compare, hash, print and convert
        # as constructed instances do, and stay frozen
        names = [f.name for f in dataclasses.fields(BoundCheck)]
        for r in bound_table(ShiftParams(a=0.3, k=k), GridSpec(lo=1.001, hi=1e6, points=20)):
            assert type(r) is BoundCheck
            assert list(vars(r)) == names
            assert list(dataclasses.asdict(r)) == names
            made = BoundCheck(**vars(r))
            assert r == made and made == r
            assert hash(r) == hash(made)
            assert repr(r) == repr(made)
            with pytest.raises(dataclasses.FrozenInstanceError):
                r.lower = 0.0

    def test_upper_margin_collapses_toward_one(self):
        # the even chain degenerates to equality at x = 1, so just above it
        # the margin is positive but tiny
        r = row_at(ShiftParams(a=0.5, k=0), 1.0 + 1e-6)
        assert 0.0 < r.upper_margin < 1e-5
        assert r.upper_margin > 10.0 * r.upper_margin_error

    def test_rejects_grid_reaching_one(self):
        with pytest.raises(ValueError):
            bound_table(ShiftParams(a=0.5, k=2), GridSpec(lo=0.9, hi=10.0, points=5))

    def test_endpoint_constant_is_computed_once_per_table(self, monkeypatch):
        # C(a, k) does not depend on x: it is the gap at x = 1, which heads
        # the table's one x array, so a table at k >= 1 makes no
        # shift_gap_derivative call and runs the scalar engine nowhere
        gaps, calls, blocks = [], [], []
        gap, engine, block = (polycm.bounds.shift_gap_derivative, polycm.cm.polygamma,
                              polycm.bounds._gap_block)
        monkeypatch.setattr(polycm.bounds, "shift_gap_derivative",
                            lambda *args: gaps.append(args) or gap(*args))
        monkeypatch.setattr(polycm.cm, "polygamma", lambda *args: calls.append(args) or engine(*args))
        monkeypatch.setattr(polycm.bounds, "_gap_block",
                            lambda q, n, x: blocks.append(x.tolist()) or block(q, n, x))
        p = ShiftParams(a=0.3, k=1)
        grid = GridSpec(lo=1.5, hi=500.0, points=25)
        bound_table(p, grid)
        assert gaps == []
        assert calls == []
        assert blocks == [[1.0, *grid.generate().tolist()]]

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

    def test_engine_calls_per_table(self, monkeypatch):
        # the rows take their gaps from one _gap_block call per _SCAN_BLOCK
        # elements of the one x array [1.0, *grid], in order, at order 0,
        # with x = 1.0 for C; a block of 7 splits C and 37 rows into six
        # calls, and the rows are those of one call
        grid = GridSpec(lo=1.001, hi=1e4, points=37)
        for p in (ShiftParams(a=0.3, k=2), ShiftParams(a=0.7, k=5)):
            whole = bound_table(p, grid)
            blocks, block = [], polycm.bounds._gap_block

            def recorded(q, n, x, block=block):
                blocks.append((n.tolist(), x.tolist()))
                return block(q, n, x)

            with monkeypatch.context() as mp:
                mp.setattr(polycm.bounds, "_gap_block", recorded)
                mp.setattr(polycm.bounds, "_SCAN_BLOCK", 7)
                assert bound_table(p, grid) == whole
            xs = [1.0, *grid.generate().tolist()]
            assert blocks == [([0] * len(xs[i:i + 7]), xs[i:i + 7]) for i in range(0, 38, 7)]
            assert len(blocks) == 6
