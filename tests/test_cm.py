"""Ratio monotonicity, the squeeze, shift gaps, and the sign-pattern scan."""

from __future__ import annotations

import math

import numpy as np
import pytest

from polycm import (
    GridSpec,
    LN2,
    PI,
    RatioParams,
    ShiftParams,
    cm_scan,
    cm_weight,
    exp_diff_ratio,
    expm1_ratio,
    increasing_condition,
    shift_gap_derivative,
    zeta_int,
)


class TestExpDiffRatio:
    def test_limit_at_zero(self):
        p = RatioParams(alpha=0.0, beta=0.5)
        assert exp_diff_ratio(p, 0.0) == 0.5

    def test_value_against_direct_formula(self):
        p = RatioParams(alpha=0.0, beta=0.5)
        direct = (1.0 - math.exp(-0.5)) / (1.0 - math.exp(-1.0))
        assert exp_diff_ratio(p, 1.0) == pytest.approx(direct, rel=1e-15)
        p2 = RatioParams(alpha=-1.0, beta=2.0)
        direct2 = (math.exp(3.0) - math.exp(-6.0)) / (1.0 - math.exp(-3.0))
        assert exp_diff_ratio(p2, 3.0) == pytest.approx(direct2, rel=1e-14)

    def test_series_branch_joins_smoothly(self):
        # a tight straddle of the 1e-4 switch: the tolerance allows for the
        # function's own motion across the 2e-10 wide t-interval
        for p in (RatioParams(alpha=0.0, beta=0.5), RatioParams(alpha=-1.3, beta=0.9)):
            below = exp_diff_ratio(p, 0.999999e-4)
            above = exp_diff_ratio(p, 1.000001e-4)
            assert below == pytest.approx(above, rel=1e-9)

    def test_rejects(self):
        with pytest.raises(ValueError):
            RatioParams(alpha=0.5, beta=0.5)
        with pytest.raises(ValueError):
            RatioParams(alpha=math.nan, beta=0.5)
        p = RatioParams(alpha=0.0, beta=0.5)
        with pytest.raises(ValueError):
            exp_diff_ratio(p, -1.0)


class TestIncreasingCondition:
    @pytest.mark.parametrize(
        "alpha,beta,expected",
        [
            (0.0, 0.5, True),     # boundary of both clauses
            (-1.0, 0.5, True),
            (-2.0, 1.0, True),
            (0.25, 0.5, False),   # second clause fails
            (2.0, 3.0, False),    # first clause fails
            (0.5, 0.0, False),    # reversed pair is decreasing
            (0.5, 0.25, False),   # dips below its limit at 0 before recovering
        ],
    )
    def test_known_classifications(self, alpha, beta, expected):
        assert increasing_condition(RatioParams(alpha=alpha, beta=beta)) is expected

    @pytest.mark.parametrize(
        "alpha,beta",
        [(0.0, 0.5), (-1.0, 0.5), (0.25, 0.5), (2.0, 3.0), (0.3, 0.9), (-0.5, 1.5)],
    )
    def test_classification_matches_sampled_monotonicity(self, alpha, beta):
        p = RatioParams(alpha=alpha, beta=beta)
        ts = np.geomspace(1e-4, 50.0, 120)
        vals = np.array([exp_diff_ratio(p, float(t)) for t in ts])
        steps = np.diff(vals)
        scale = np.maximum(np.abs(vals[:-1]), 1.0)
        if increasing_condition(p):
            assert np.all(steps >= -1e-12 * scale)
        else:
            assert np.any(steps < -1e-9 * scale)


class TestSqueeze:
    def test_strictly_between_a_and_one(self):
        # t stays below 20 so the true upper margin e^-at never dips under
        # the 1e-12 slack; past at ~ 28 the ratio is 1.0 to working precision
        for a in np.linspace(0.05, 0.95, 10):
            for t in np.geomspace(1e-4, 20.0, 12):
                r = expm1_ratio(float(a), float(t))
                assert a + 1e-12 < r < 1.0 - 1e-12, (a, t, r)

    def test_matches_weight_formula(self):
        # expm1_ratio - a and cm_weight reach the same quantity through
        # different algebra; they may only disagree at rounding level
        for a in (0.1, 0.5, 0.9):
            for t in (1e-3, 0.04, 1.0, 30.0):
                assert expm1_ratio(a, t) - a == pytest.approx(cm_weight(a, t), rel=1e-10)

    def test_rejects(self):
        with pytest.raises(ValueError):
            expm1_ratio(0.0, 1.0)
        with pytest.raises(ValueError):
            expm1_ratio(1.0, 1.0)
        with pytest.raises(ValueError):
            expm1_ratio(0.5, 0.0)


class TestShiftParams:
    def test_validation(self):
        for bad_a in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                ShiftParams(a=bad_a, k=0)
        with pytest.raises(ValueError):
            ShiftParams(a=0.5, k=-1)
        with pytest.raises(ValueError):
            ShiftParams(a=0.5, k=41)


class TestGridSpec:
    def test_generation(self):
        lin = GridSpec(lo=1.0, hi=2.0, points=5, spacing="linear").generate()
        assert lin[0] == 1.0 and lin[-1] == 2.0
        assert np.all(np.diff(lin) > 0.0)
        log = GridSpec(lo=0.1, hi=100.0, points=31).generate()
        assert log[0] == pytest.approx(0.1, rel=1e-15)
        assert log[-1] == pytest.approx(100.0, rel=1e-15)
        assert len(log) == 31
        assert np.all(np.diff(log) > 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(lo=0.0, hi=1.0, points=5)
        with pytest.raises(ValueError):
            GridSpec(lo=2.0, hi=1.0, points=5)
        with pytest.raises(ValueError):
            GridSpec(lo=1.0, hi=2.0, points=1)
        with pytest.raises(ValueError):
            GridSpec(lo=1.0, hi=2.0, points=5, spacing="cubic")


class TestShiftGaps:
    def test_even_gap_at_reference_point(self):
        # gap(1) for a=1/2, k=0 equals 3/2 - 2 ln 2
        r = shift_gap_derivative(ShiftParams(a=0.5, k=0), 0, 1.0)
        assert abs(r.value - (1.5 - 2.0 * LN2)) <= 1e-12

    def test_odd_gap_at_reference_point(self):
        # gap(1) for a=1/2, k=1 equals pi^2/3 - 9/2
        r = shift_gap_derivative(ShiftParams(a=0.5, k=1), 0, 1.0)
        assert abs(r.value - (PI * PI / 3.0 - 4.5)) <= 1e-11

    @pytest.mark.parametrize("a", [0.2, 0.5, 0.8])
    def test_gap_signs(self, a):
        for x in (0.1, 1.0, 10.0):
            for k in (0, 2, 4):
                assert shift_gap_derivative(ShiftParams(a=a, k=k), 0, x).value > 0.0
            for k in (1, 3, 5):
                assert shift_gap_derivative(ShiftParams(a=a, k=k), 0, x).value < 0.0

    def test_derivative_matches_finite_differences(self):
        # central differences of the gap against the closed-form derivative;
        # h tuned so truncation and rounding are both far below tolerance
        p = ShiftParams(a=0.3, k=2)

        def gap(x):
            return shift_gap_derivative(p, 0, x).value

        for x in (0.5, 1.0, 3.0):
            h = 1e-5 * max(1.0, x)
            fd1 = (gap(x + h) - gap(x - h)) / (2.0 * h)
            cl1 = shift_gap_derivative(p, 1, x).value
            assert fd1 == pytest.approx(cl1, rel=1e-6)
            h2 = 1e-4 * max(1.0, x)
            fd2 = (gap(x + h2) - 2.0 * gap(x) + gap(x - h2)) / h2**2
            cl2 = shift_gap_derivative(p, 2, x).value
            assert fd2 == pytest.approx(cl2, rel=1e-4)

    def test_derivative_rejects(self):
        p = ShiftParams(a=0.5, k=38)
        with pytest.raises(ValueError):
            shift_gap_derivative(p, 3, 1.0)
        with pytest.raises(ValueError):
            shift_gap_derivative(ShiftParams(a=0.5, k=0), -1, 1.0)


class TestCMScan:
    def test_even_scan_passes(self):
        rep = cm_scan(ShiftParams(a=0.5, k=2), 6, GridSpec(lo=0.1, hi=100.0, points=40))
        assert rep.passed
        assert rep.min_signed_value > rep.witness_error > 0.0
        assert rep.derivative_orders == list(range(7))
        n, x = rep.witness_point
        assert 0 <= n <= 6
        assert 0.1 <= x <= 100.0

    def test_odd_scan_passes(self):
        rep = cm_scan(ShiftParams(a=0.3, k=3), 6, GridSpec(lo=0.1, hi=100.0, points=40))
        assert rep.passed
        assert rep.min_signed_value > 0.0

    def test_scan_rejects_excessive_order(self):
        with pytest.raises(ValueError):
            cm_scan(ShiftParams(a=0.5, k=38), 5, GridSpec(lo=0.1, hi=10.0, points=5))
        with pytest.raises(ValueError):
            cm_scan(ShiftParams(a=0.5, k=0), -1, GridSpec(lo=0.1, hi=10.0, points=5))

    def test_far_field_is_indeterminate_not_failed(self):
        # far out on the axis the signed values sink under their own error
        # bars; those points must be counted, not flagged as sign failures
        far = cm_scan(ShiftParams(a=0.5, k=4), 2, GridSpec(lo=1e12, hi=1e13, points=5))
        assert far.indeterminate_count == 15
        assert far.witness_point is None
        assert not far.passed

    def test_mixed_grid_passes_despite_indeterminate_tail(self):
        rep = cm_scan(ShiftParams(a=0.5, k=4), 2, GridSpec(lo=1.0, hi=1e13, points=12))
        assert rep.passed
        assert rep.indeterminate_count > 0
