"""Ratio monotonicity, the squeeze, shift gaps, and the sign-pattern scan."""

from __future__ import annotations

import itertools
import math
import re
import sys

import numpy as np
import pytest

import polycm.cm
from polycm import (
    MAX_ORDER,
    GridSpec,
    ShiftParams,
    bound_table,
    cm_scan,
    cm_weight,
    exp_diff_ratio,
    factorial_over_power,
    gap_integral_odd,
    increasing_condition,
    shift_gap_derivative,
)
from polycm.cm import SIGN_GUARD, CMScanReport, _fsum3, _gap_block


def _mp_ratio(mpmath, alpha, beta, t):
    """The ratio in the working precision of mpmath, from exact inputs."""
    alpha, beta, t = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(t)
    # e^-alpha t - e^-beta t = -e^-alpha t expm1(-(beta - alpha) t), which
    # does not cancel for near-equal pairs
    return mpmath.exp(-alpha * t) * mpmath.expm1(-(beta - alpha) * t) / mpmath.expm1(-t)


def small_t_cases():
    """(alpha, beta, t) with t < 1e-4, fixed and seeded."""
    rng = np.random.default_rng(20261019)
    cases = [(-1000.0, 0.0, 9.9e-5), (1e4, 0.0, 9.9e-5), (0.0, 1e4, 9e-5),
             (1e100, 0.0, 1e-5), (0.0, 1e200, 1e-210)]
    for _ in range(300):
        # the series region, near-equal pairs in three draws of ten
        alpha = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300.0, 300.0))
        beta = (float(alpha * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-16.0, -1.0)))
                if rng.uniform() < 0.3
                else float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300.0, 300.0)))
        switch = 1e-4 / max(1.0, abs(alpha), abs(beta))
        cases.append((alpha, beta, max(switch * float(10.0 ** -rng.uniform(0.0, 30.0)), 1e-322)))
        # t in [switch, 1e-4), which takes the plain formula
        alpha = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(0.0, 2.8))
        beta = float(rng.uniform(-abs(alpha) / 2.0, abs(alpha) / 2.0))
        switch = 1e-4 / abs(alpha)
        cases.append((alpha, beta, float(10.0 ** rng.uniform(math.log10(switch), -4.0))))
    return cases


def plain_formula_cases():
    """(alpha, beta, t) from the series switch up to t = 50, fixed and seeded."""
    rng = np.random.default_rng(20261020)
    cases = [(2.0, 2.0 * (1.0 + 1e-10), 1e-3), (2.0, 2.0 * (1.0 + 1e-13), 1.0),
             (0.3, 0.3 + 1e-12, 5.0), (-1000.0, -1000.0 + 1e-10, 0.71)]
    for _ in range(400):
        alpha = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 3.0))
        beta = (float(alpha * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-16.0, -1.0)))
                if rng.uniform() < 0.5
                else float(rng.uniform(-1e3, 1e3)))
        switch = 1e-4 / max(1.0, abs(alpha), abs(beta))
        cases.append((alpha, beta, float(10.0 ** rng.uniform(math.log10(switch), math.log10(50.0)))))
    return cases


class TestExpDiffRatio:
    def test_limit_at_zero(self):
        assert exp_diff_ratio(0.0, 0.5, 0.0) == 0.5

    def test_value_against_direct_formula(self):
        direct = (1.0 - math.exp(-0.5)) / (1.0 - math.exp(-1.0))
        assert exp_diff_ratio(0.0, 0.5, 1.0) == pytest.approx(direct, rel=1e-15)
        direct2 = (math.exp(3.0) - math.exp(-6.0)) / (1.0 - math.exp(-3.0))
        assert exp_diff_ratio(-1.0, 2.0, 3.0) == pytest.approx(direct2, rel=1e-14)

    def test_series_branch_joins_smoothly(self):
        # a tight straddle of each pair's own switch, 1e-4/max(1, |alpha|,
        # |beta|): the tolerance allows for the function's own motion across
        # the t-interval, 2e-6 of the switch wide
        for alpha, beta in ((0.0, 0.5), (-1.3, 0.9)):
            switch = 1e-4 / max(1.0, abs(alpha), abs(beta))
            below = exp_diff_ratio(alpha, beta, 0.999999 * switch)
            above = exp_diff_ratio(alpha, beta, 1.000001 * switch)
            assert below == pytest.approx(above, rel=1e-9)

    def test_rejects(self):
        # the ratio and its criterion share one pair rule and its messages
        for check in (lambda al, be: exp_diff_ratio(al, be, 1.0), increasing_condition):
            with pytest.raises(ValueError, match="^alpha and beta must differ$"):
                check(0.5, 0.5)
            with pytest.raises(ValueError, match="^alpha and beta must be finite$"):
                check(math.nan, 0.5)
            with pytest.raises(ValueError, match="^alpha and beta must be finite$"):
                check(10**400, 0.5)
        for t in (-1.0, 10**400, -(10**400)):
            with pytest.raises(ValueError, match="^t must be finite and >= 0, got "):
                exp_diff_ratio(0.0, 0.5, t)

    def test_small_t_against_mpmath(self):
        # below 1e-4 the ratio takes its series only where max(1, |alpha|,
        # |beta|) t < 1e-4, and the plain formula otherwise; both hold a few
        # eps over |alpha|, |beta| up to 1e300, near-equal pairs, t down to
        # subnormal, and the points where a series in powers of alpha and
        # beta lost digits or raised OverflowError
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for alpha, beta, t in small_t_cases():
                if alpha == beta or t >= 1e-4:
                    continue
                ref = _mp_ratio(mpmath, alpha, beta, t)
                got = exp_diff_ratio(alpha, beta, t)
                # a subnormal value has no relative precision to hold
                scale = max(abs(ref), sys.float_info.min)
                assert abs(got - ref) <= 4.0 * sys.float_info.epsilon * scale, (alpha, beta, t, got)

    def test_plain_formula_against_mpmath(self):
        # from the series switch on, near-equal pairs, where a difference of
        # two expm1 would cancel, keep their digits, and the rounding of
        # min(alpha, beta) t costs none; a ratio beyond binary64 raises
        # OverflowError and every other one holds 4 eps, the last fixed case
        # too, whose factor e^-min(alpha, beta) t alone overflows
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for alpha, beta, t in plain_formula_cases():
                if alpha == beta:
                    continue
                ref = _mp_ratio(mpmath, alpha, beta, t)
                if abs(ref) > sys.float_info.max:
                    with pytest.raises(OverflowError, match="^exp_diff_ratio"):
                        exp_diff_ratio(alpha, beta, t)
                    continue
                got = exp_diff_ratio(alpha, beta, t)
                scale = max(abs(ref), sys.float_info.min)
                assert abs(got - ref) <= 4.0 * sys.float_info.epsilon * scale, (alpha, beta, t, got)

    def test_overflow_names_the_call(self):
        # beta - alpha overflows in the series branch and e^-alpha t in the
        # plain one: both raise the same OverflowError, and neither gives inf
        for t in (1e-320, 1e-4):
            with pytest.raises(OverflowError,
                               match=rf"^exp_diff_ratio\(-1e\+308, 1e\+308, {t!r}\) left the binary64 range$"):
                exp_diff_ratio(-1e308, 1e308, t)


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
        assert increasing_condition(alpha, beta) is expected

    @pytest.mark.parametrize(
        "alpha,beta",
        [(0.0, 0.5), (-1.0, 0.5), (0.25, 0.5), (2.0, 3.0), (0.3, 0.9), (-0.5, 1.5)],
    )
    def test_classification_matches_sampled_monotonicity(self, alpha, beta):
        ts = np.geomspace(1e-4, 50.0, 120)
        vals = np.array([exp_diff_ratio(alpha, beta, float(t)) for t in ts])
        steps = np.diff(vals)
        scale = np.maximum(np.abs(vals[:-1]), 1.0)
        if increasing_condition(alpha, beta):
            assert np.all(steps >= -1e-12 * scale)
        else:
            assert np.any(steps < -1e-9 * scale)


class TestSqueeze:
    # the squeeze (1 - e^-at)/(1 - e^-t) is the ratio at (alpha, beta) = (0, a)

    def test_strictly_between_a_and_one(self):
        # t stays below 20 so the true upper margin e^-at never dips under
        # the 1e-12 slack; past at ~ 28 the ratio is 1.0 to working precision
        for a in np.linspace(0.05, 0.95, 10):
            for t in np.geomspace(1e-4, 20.0, 12):
                r = exp_diff_ratio(0.0, float(a), float(t))
                assert a + 1e-12 < r < 1.0 - 1e-12, (a, t, r)

    def test_subnormal_t_keeps_the_limit(self):
        # expm1(-at)/expm1(-t) loses its digits once t is subnormal (0.0 at
        # t = 5e-324); the small-t series keeps the limit a
        for t in (5e-324, 1e-315, 1e-310):
            assert exp_diff_ratio(0.0, 0.3, t) == 0.3

    def test_matches_weight_formula(self):
        # the squeeze - a and cm_weight reach the same quantity through
        # different algebra; they may only disagree at rounding level
        for a in (0.1, 0.5, 0.9):
            for t in (1e-3, 0.04, 1.0, 30.0):
                assert exp_diff_ratio(0.0, a, t) - a == pytest.approx(cm_weight(a, t), rel=1e-10)


class TestShiftParams:
    def test_validation(self):
        for bad_a in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                ShiftParams(a=bad_a, k=0)
        with pytest.raises(ValueError):
            ShiftParams(a=0.5, k=-1)
        with pytest.raises(ValueError):
            ShiftParams(a=0.5, k=41)

    @pytest.mark.parametrize("a", [0.0, 1.0, -0.1, math.nan, pytest.param(10**400, id="10**400")])
    def test_one_shift_rule(self, a):
        # ShiftParams and the oracle's weight and gap integrals share one
        # check and one message
        for check in (lambda: ShiftParams(a=a, k=0), lambda: cm_weight(a, 1.0),
                      lambda: gap_integral_odd(a, 1, 1.0)):
            with pytest.raises(ValueError, match=r"^a must lie strictly in \(0, 1\), got "):
                check()


def libm_grids(draws):
    """(lo, hi, points): the README, CLI-default and benchmark grids, grids
    ending at the ends of binary64, then three seeded random ones per draw
    over the whole positive range, down to a few ulp wide."""
    grids = [(0.1, 100.0, 60), (1.5, 500.0, 25), (0.1, 100.0, 40), (1.001, 1000.0, 50),
             (1e-3, 1e14, 60), (1.001, 1e2, 50), (1.0, 1.0000000000000004, 3),
             (5e-324, sys.float_info.max, 50), (1.5, sys.float_info.max, 5)]
    rng = np.random.default_rng(19)
    for _ in range(draws):
        lo, hi = sorted(10.0 ** u for u in rng.uniform(-300.0, 300.0, 2).tolist())
        grids.append((lo, hi, int(rng.integers(2, 200))))
        grids.append((lo, lo * (1.0 + 2.0 ** -float(rng.uniform(10.0, 40.0))), 2))
        grids.append((lo, math.nextafter(lo, math.inf), 2))
    return grids


class TestGridSpec:
    def test_generation(self):
        log = GridSpec(lo=0.1, hi=100.0, points=31).generate()
        assert log[0] == pytest.approx(0.1, rel=1e-15)
        assert log[-1] == pytest.approx(100.0, rel=1e-15)
        assert len(log) == 31
        assert np.all(np.diff(log) > 0.0)

    def test_log_grid_has_the_bits_of_libm(self):
        # lo, then 10^(i*step + log10(lo)) from libm's log10 and pow, then
        # hi: the same bits whatever SIMD loops numpy dispatches to
        for lo, hi, points in libm_grids(2000):
            xs = GridSpec(lo, hi, points).generate()
            step = (math.log10(hi) - math.log10(lo)) / (points - 1)
            expected = [lo, *(10.0 ** (i * step + math.log10(lo)) for i in range(1, points - 1)), hi]
            assert xs.dtype == np.float64 and xs.shape == (points,)
            assert xs.tolist() == expected, (lo, hi, points)

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(lo=0.0, hi=1.0, points=5)
        with pytest.raises(ValueError):
            GridSpec(lo=2.0, hi=1.0, points=5)
        with pytest.raises(ValueError):
            GridSpec(lo=1.0, hi=2.0, points=1)
        # one spacing, so no fourth setting
        with pytest.raises(TypeError):
            GridSpec(1.0, 2.0, 5, "linear")
        # an int beyond binary64 is rejected as the infinity of its sign
        with pytest.raises(ValueError, match=r"^hi must be finite, got inf$"):
            GridSpec(lo=1, hi=10**400, points=3)
        with pytest.raises(ValueError, match=r"^lo must be finite, got -inf$"):
            GridSpec(lo=-(10**400), hi=1, points=3)
        # lo takes x's rule, under its own name: nan and either infinity
        # break finiteness, checked first; hi's nan and inf break
        # finiteness, and its -inf the order rule
        for lo, hi, message in [
            (math.nan, 2.0, "lo must be finite, got nan"),
            (math.inf, 2.0, "lo must be finite, got inf"),
            (math.nan, math.nan, "lo must be finite, got nan"),
            (1.0, math.nan, "hi must be finite, got nan"),
            (1.0, math.inf, "hi must be finite, got inf"),
            (0.0, math.inf, "lo must be positive, got 0.0"),
            (1.0, -math.inf, "hi must exceed lo, got -inf"),
            (2.0, 2.0, "hi must exceed lo, got 2.0"),
        ]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                GridSpec(lo=lo, hi=hi, points=3)

    def test_repeated_points_are_rejected(self):
        # [1, 1 + 2 ulp] holds three doubles, so ten points must repeat some
        grid = GridSpec(lo=1.0, hi=1.0000000000000004, points=10)
        with pytest.raises(ValueError, match="too narrow"):
            grid.generate()
        with pytest.raises(ValueError, match="too narrow"):
            cm_scan(ShiftParams(a=0.5, k=2), 1, grid)
        three = GridSpec(lo=1.0, hi=1.0000000000000004, points=3).generate()
        assert np.all(np.diff(three) > 0.0)
        # below DBL_MAX both ends share one log10, whose power overflows:
        # the interior point cannot lie below hi, so the grid is too narrow
        top = sys.float_info.max
        with pytest.raises(ValueError, match="is too narrow for 3 distinct logarithmic points$"):
            GridSpec(lo=math.nextafter(top, 0.0), hi=top, points=3).generate()


class TestShiftGaps:
    def test_even_gap_at_reference_point(self):
        # gap(1) for a=1/2, k=0 equals 3/2 - 2 ln 2
        r = shift_gap_derivative(ShiftParams(a=0.5, k=0), 0, 1.0)
        assert abs(r.value - (1.5 - 2.0 * math.log(2.0))) <= 1e-12

    def test_odd_gap_at_reference_point(self):
        # gap(1) for a=1/2, k=1 equals pi^2/3 - 9/2
        r = shift_gap_derivative(ShiftParams(a=0.5, k=1), 0, 1.0)
        assert abs(r.value - (math.pi * math.pi / 3.0 - 4.5)) <= 1e-11

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

    def test_one_derivative_rule(self):
        # shift_gap_derivative's n and cm_scan's max_order share one check
        p = ShiftParams(a=0.5, k=38)
        grid = GridSpec(lo=0.1, hi=10.0, points=5)
        for n in (-1, 3):
            message = rf"^derivative order must be in \[0, 2\] on top of k = 38, got {n}$"
            with pytest.raises(ValueError, match=message):
                shift_gap_derivative(p, n, 1.0)
            with pytest.raises(ValueError, match=message):
                cm_scan(p, n, grid)
        assert shift_gap_derivative(p, 2, 1.0).value > 0.0

    def test_non_finite_gap_raises_overflow(self):
        # psi_40(1e-7) is about 8e334, so the value and its bar leave binary64
        with pytest.raises(OverflowError, match="binary64"):
            shift_gap_derivative(ShiftParams(a=0.5, k=32), 8, 1e-7)


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

    def test_non_finite_samples_raise_overflow(self):
        # the kernel passes its first overflowing sample to the scalar
        # engine, which raises OverflowError for it
        with pytest.raises(OverflowError, match="binary64"):
            cm_scan(ShiftParams(a=0.5, k=32), 8, GridSpec(lo=1e-7, hi=1.0, points=10))

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


def scalar_scan(p, max_order, grid):
    """cm_scan's report from one shift_gap_derivative call per sample,
    order-major, with ties for the minimum resolved to the first sample."""
    orders = list(range(max_order + 1))
    best, witness, witness_err, indeterminate = math.inf, None, math.inf, 0
    for n in orders:
        sign = 1.0 if (p.k + n) % 2 == 0 else -1.0
        for x in grid.generate().tolist():
            d = shift_gap_derivative(p, n, x)
            signed = sign * d.value
            if abs(signed) < SIGN_GUARD * d.abs_error_estimate:
                indeterminate += 1
            elif signed < best:
                best, witness, witness_err = signed, (n, x), d.abs_error_estimate
    passed = witness is not None and best > witness_err
    return CMScanReport(p, orders, grid, best, witness, witness_err, indeterminate, passed)


# the README's verify-cm example and two inputs of the verify benchmark; the
# second crosses the range edge of the powers without raising.  The last
# shifts every kernel element, where the kernel's shift cap binds hardest
SCANS = [
    (0.5, 2, 6, GridSpec(lo=0.1, hi=100.0, points=40)),
    (0.5, 2, 8, GridSpec(lo=0.1, hi=100.0, points=60)),
    (0.1205486384174355, 21, 8, GridSpec(0.012903826342736593, 9634438981.757809, 60)),
    (0.5, 4, 2, GridSpec(lo=1.0, hi=1e13, points=12)),
    (0.5, 32, 8, GridSpec(1e-3, 5.0, 455)),
]


class TestBatchedScan:
    @pytest.mark.parametrize("block", [None, 7])
    @pytest.mark.parametrize("a,k,max_order,grid", SCANS)
    def test_matches_per_point_reference(self, monkeypatch, a, k, max_order, grid, block):
        # block = 7 splits the grid across many kernel calls, so ties and
        # the minimum are carried from block to block
        if block is not None:
            monkeypatch.setattr(polycm.cm, "_SCAN_BLOCK", block)
        p = ShiftParams(a=a, k=k)
        assert cm_scan(p, max_order, grid) == scalar_scan(p, max_order, grid)

    def test_raises_where_the_scalar_scan_raises(self):
        # k + n = 32 at x ~ 4.4e10 leaves the binary64 range in the engine:
        # cm_scan raises the scalar scan's first message, and so does
        # bound_table at k = 32 that of its first shift_gap_derivative
        # call, C's at x = 1 first
        p = ShiftParams(a=0.1682812440157647, k=24)
        grid = GridSpec(0.015672469339977946, 44487609651.509514, 60)
        with pytest.raises(OverflowError) as scalar:
            scalar_scan(p, 8, grid)
        with pytest.raises(OverflowError, match="^" + re.escape(str(scalar.value)) + "$"):
            cm_scan(p, 8, grid)
        p = ShiftParams(a=p.a, k=32)
        grid = GridSpec(1.001, grid.hi, 60)
        with pytest.raises(OverflowError) as scalar:
            for x in [1.0, *grid.generate().tolist()]:
                shift_gap_derivative(p, 0, x)
        with pytest.raises(OverflowError, match="^" + re.escape(str(scalar.value)) + "$"):
            bound_table(p, grid)

    def test_ties_resolve_to_the_first_point(self, monkeypatch):
        # a signed value that is the same everywhere: the witness is the
        # first (n, x), also when it sits in an earlier block than a tie
        def flat(p, n, x):
            return np.where((p.k + n) % 2 == 0, 1.0, -1.0), np.full(len(n), 1e-6), np.zeros(len(n))

        monkeypatch.setattr(polycm.cm, "_gap_block", flat)
        monkeypatch.setattr(polycm.cm, "_SCAN_BLOCK", 5)
        rep = cm_scan(ShiftParams(a=0.5, k=2), 3, GridSpec(lo=1.0, hi=2.0, points=4))
        assert rep.witness_point == (0, 1.0)
        assert rep.indeterminate_count == 0


def hexes(values):
    return [float(v).hex() for v in values]


def adversarial_triples():
    """Triples on which a naive or half-compensated sum rounds wrongly."""
    rng = np.random.default_rng(20080401)
    ulp1 = 2.0**-52
    fixed = [
        # half-ulp ties of 1 and 1 + ulp, each broken or kept by a third term
        (1.0, ulp1 / 2, 0.0), (1.0, ulp1 / 2, 2.0**-110), (1.0, ulp1 / 2, -(2.0**-110)),
        (1.0 + ulp1, ulp1 / 2, 0.0), (1.0 + ulp1, -ulp1 / 2, 2.0**-200),
        (1.0, ulp1 / 4, ulp1 / 4), (1.0, ulp1 / 4, ulp1 / 4 + 2.0**-120),
        (-1.0, -ulp1 / 2, -(2.0**-1074)), (2.0, -ulp1 / 2, 2.0**-160),
        # exact cancellation, with and without a small remainder
        (1e300, -1e300, 1e-300), (0.1, -0.1, 0.0), (0.1, 0.2, -0.30000000000000004),
        (1.0, -1.0, -0.0), (-(2.0**-1074), 2.0**-1074, -0.0),
        # subnormals and the normal edge
        (2.0**-1074, 2.0**-1074, 2.0**-1074), (2.0**-1022, -(2.0**-1074), 2.0**-1075 * 3),
        (2.0**-1022, -(2.0**-1023), -(2.0**-1024)),
        # wide exponent spread
        (1e300, 1.0, 1e-300), (2.0**1000, -(2.0**1000), 2.0**-1074),
        (2.0**1000, 2.0**947, 2.0**946 + 2.0**890), (-(2.0**1000), 2.0**946, -(2.0**893)),
    ]
    zeros = list(itertools.product((0.0, -0.0), repeat=3))
    triples = [t for base in fixed + zeros for t in itertools.permutations(base)]

    def spread(size, lo, hi):
        signs = rng.choice([-1.0, 1.0], size)
        return signs * np.ldexp(rng.random(size) + 0.5, rng.integers(lo, hi, size))

    size = 20000
    a = spread(size, -1000, 1000)
    ulp = np.spacing(np.abs(a))
    batches = [
        # ties: a plus half its ulp, tipped by a much smaller term or not
        (a, ulp / 2 * rng.choice([-3.0, -1.0, 1.0, 3.0], size),
         np.where(rng.random(size) < 0.3, 0.0, ulp * spread(size, -60, -1))),
        (a, ulp / 4 * rng.choice([-1.0, 1.0], size), ulp / 4 * rng.choice([-1.0, 1.0], size)),
        # cancellation, as in psi(x + a) - psi(x) against the power term
        (a, -a * (1.0 + rng.random(size) * 1e-8), a * rng.random(size) * 1e-8),
        # subnormal terms and wide spread
        tuple(rng.choice([-1.0, 1.0], size) * rng.integers(0, 2**52, size) * 2.0**-1074
              for _ in range(3)),
        (spread(size, 500, 1000), spread(size, -300, 0), spread(size, -1074, -900)),
        (spread(size, -1074, 1000), spread(size, -1074, 1000), spread(size, -1074, 1000)),
    ]
    for batch in batches:
        triples.extend(zip(*(np.asarray(v, dtype=float).tolist() for v in batch)))
    return triples


#: Samples whose power term m!/x^(m+1) or power x^(m+1) lies beyond e^700,
#: near factorial_over_power's other branches, but whose polygamma values do
#: not overflow: m!/x^(m+1) ~ e^703 at k + n = 40, and x^1 ~ e^702 at k = n = 0.
FALLBACK_SCANS = [
    (0.5, 32, 8, GridSpec(lo=5.3e-7, hi=1e-6, points=4)),
    (0.5, 0, 0, GridSpec(lo=1e304, hi=1e305, points=4)),
]


class TestGapBlockBits:
    """The array gap block gives the scalar three-term combination's bits."""

    def test_three_term_sum_matches_fsum(self):
        triples = adversarial_triples()
        a, b, c = (np.array(v) for v in zip(*triples))
        assert hexes(_fsum3(a, b, c)) == hexes(math.fsum(t) for t in triples)

    def test_power_term_matches_factorial_over_power(self):
        # the block's power term m!/x**(m+1) on its reachable domain: x
        # across the windows where ln x^(m+1) or ln(m!/x^(m+1)) lies between
        # 700 and ln(DBL_MAX/2), next to factorial_over_power's other
        # branches, at every x where the block returns; a = 1/2 scales the
        # term exactly wherever it is normal
        lasts = []
        p = ShiftParams(a=0.5, k=0)
        edge = math.log(sys.float_info.max / 2.0)
        returned = [0, 0, 0]
        for m in range(MAX_ORDER + 1):
            e, lg = m + 1, math.lgamma(m + 1)
            reached = []
            for w, (lo, hi) in enumerate(((700.0, edge), (-edge, -700.0), (lg - edge, lg - 700.0))):
                xs = np.exp(np.linspace(lo / e, hi / e, 48)).tolist()
                for end in (xs[0], xs[-1]):
                    for step in range(1, 4):
                        xs += [end + step * math.ulp(end), end - step * math.ulp(end)]
                for x in xs:
                    try:
                        lasts += _gap_block(p, np.array([m]), np.array([x]))[2].tolist()
                    except OverflowError:
                        continue
                    returned[w] += 1
                    reached.append(x)
            # one term per returning call, then the same x in one block
            sign = -1.0 if m % 2 else 1.0
            expected = [sign * p.a * factorial_over_power(m, x) for x in reached]
            lasts += _gap_block(p, np.full(len(reached), m), np.array(reached))[2].tolist()
            assert hexes(lasts) == hexes(expected * 2), m
            lasts.clear()
        assert min(returned) > 0, returned

    @pytest.mark.parametrize("a,k,max_order,grid", SCANS + FALLBACK_SCANS)
    def test_gap_block_matches_scalar_combination(self, a, k, max_order, grid):
        # the block's values and bars are shift_gap_derivative's at every
        # sample, bit for bit
        p = ShiftParams(a=a, k=k)
        n, i = np.divmod(np.arange((max_order + 1) * grid.points), grid.points)
        x = grid.generate()[i]
        value, err, _ = _gap_block(p, n, x)
        expected = [shift_gap_derivative(p, *e) for e in zip(n.tolist(), x.tolist())]
        assert hexes(value) == hexes(r.value for r in expected)
        assert hexes(err) == hexes(r.abs_error_estimate for r in expected)
