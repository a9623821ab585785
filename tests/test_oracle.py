"""Oracles: series and quadrature evaluators, error-bar honesty, tail bounds."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polycm.oracle as oracle
from polycm import (
    MAX_ORDER,
    QuadratureError,
    QuadratureSpec,
    SeriesSpec,
    ShiftParams,
    cm_weight,
    digamma_series,
    gap_integral_even,
    gap_integral_odd,
    polygamma,
    polygamma_integral,
    polygamma_series,
    power_integral,
    shift_gap_derivative,
    zeta_int,
)
from polycm.constants import GAMMA_EULER

BIG = SeriesSpec(max_terms=4_000_000)


class TestSeries:
    def test_digamma_half(self):
        # psi(1/2) = -gamma - 2 ln 2; at 4e6 terms the Euler-Maclaurin
        # remainder (~7e-56) is far below the 32 eps rounding part of the bar
        r = digamma_series(0.5, BIG)
        assert abs(r.value - (-GAMMA_EULER - 2.0 * math.log(2.0))) <= 1e-13
        assert abs(r.value - (-GAMMA_EULER - 2.0 * math.log(2.0))) <= r.abs_error_estimate

    def test_digamma_known_points(self):
        for x, expected in [(1.0, -GAMMA_EULER), (2.0, 1.0 - GAMMA_EULER)]:
            r = digamma_series(x)
            assert abs(r.value - expected) <= r.abs_error_estimate
            assert abs(r.value - expected) <= 5e-12

    def test_polygamma_known_points(self):
        # the last reference is -24 (zeta(5) - 1); written via zeta_int the
        # subtraction from 1 would amplify zeta rounding ~650x, so the value
        # is frozen from a 2e6-term direct summation with an integral tail
        cases = [
            (1, 1.0, math.pi * math.pi / 6.0),
            (2, 1.0, -2.0 * zeta_int(3)),
            (3, 0.5, math.pi**4),
            (4, 2.0, -0.8862661234408782),
        ]
        for n, x, expected in cases:
            r = polygamma_series(n, x)
            assert abs(r.value - expected) <= r.abs_error_estimate, (n, x)
            assert r.value == pytest.approx(expected, rel=5e-12)

    def test_error_bar_covers_engine(self):
        for n in range(1, 9):
            for x in (0.1, 1.0, 7.3, 52.0):
                s = polygamma_series(n, x)
                e = polygamma(n, x)
                assert abs(s.value - e.value) <= s.abs_error_estimate + e.abs_error_estimate

    def test_more_terms_do_not_widen_the_bar(self):
        # from 100 terms on the Euler-Maclaurin remainder sits below the
        # 32 eps rounding floor, so more terms cannot visibly narrow the bar
        runs = [
            polygamma_series(1, 1.0, SeriesSpec(max_terms=k))
            for k in (100, 1000, 10_000, 1_000_000)
        ]
        for i, r in enumerate(runs):
            for s in runs[i + 1:]:
                assert abs(r.value - s.value) <= r.abs_error_estimate + s.abs_error_estimate
                assert s.abs_error_estimate <= r.abs_error_estimate
        assert max(r.abs_error_estimate for r in runs) <= 1e-13

    def test_series_spec_validation(self):
        with pytest.raises(ValueError):
            SeriesSpec(max_terms=10)
        with pytest.raises(ValueError):
            polygamma_series(0, 1.0)
        with pytest.raises(ValueError):
            polygamma_series(1, -1.0)
        with pytest.raises(ValueError):
            digamma_series(0.0)

    def test_series_order_is_capped(self):
        # the same cap as every derivative order: 60 used to return a value
        # and 1000 to fail inside math.factorial
        for n in (MAX_ORDER + 1, 60, 1000):
            with pytest.raises(ValueError, match=r"must be in \[0, 40\]"):
                polygamma_series(n, 2.0)

    def test_series_spec_rejects_fractional_terms(self):
        # the tail sits at K + x, so a fractional K would misplace it
        with pytest.raises(TypeError):
            SeriesSpec(max_terms=150.5)

    def test_series_bar_covers_mpmath_referee(self):
        # both series routes over the documented domain, n <= 40 and x in
        # [1e-3, 1e6], at the default and the shortest sum, judged by a
        # 40-digit referee
        mpmath = pytest.importorskip("mpmath")
        specs = (SeriesSpec(), SeriesSpec(max_terms=100))
        with mpmath.workdps(40):
            for n in range(MAX_ORDER + 1):
                for x in np.geomspace(1e-3, 1e6, 40).tolist():
                    truth = mpmath.polygamma(n, mpmath.mpf(x))
                    for spec in specs:
                        r = digamma_series(x, spec) if n == 0 else polygamma_series(n, x, spec)
                        err = abs(mpmath.mpf(r.value) - truth)
                        assert err <= r.abs_error_estimate, (spec.max_terms, n, x, float(err))


class TestQuadrature:
    def test_digamma_at_one_is_minus_gamma(self):
        # the integrand vanishes identically at x = 1
        r = polygamma_integral(0, 1.0)
        assert r.value == pytest.approx(-GAMMA_EULER, abs=1e-15)

    def test_closed_forms(self):
        cases = [
            (0, 0.5, -GAMMA_EULER - 2.0 * math.log(2.0)),
            (1, 1.0, math.pi * math.pi / 6.0),
            (2, 1.0, -2.0 * zeta_int(3)),
            (3, 0.5, math.pi**4),
        ]
        for n, x, expected in cases:
            r = polygamma_integral(n, x)
            assert abs(r.value - expected) <= r.abs_error_estimate, (n, x)
            assert r.value == pytest.approx(expected, rel=1e-11)

    def test_agrees_with_engine_including_digamma(self):
        for n in range(0, 9):
            for x in (0.1, 0.9, 3.0, 41.0):
                q = polygamma_integral(n, x)
                e = polygamma(n, x)
                assert abs(q.value - e.value) <= q.abs_error_estimate + e.abs_error_estimate

    def test_power_integral_closed_form(self):
        r = power_integral(3, 2.0)
        assert abs(r.value - 0.375) <= r.abs_error_estimate
        r = power_integral(0, 5.0)
        assert r.value == pytest.approx(0.2, rel=1e-11)

    def test_tail_honesty_on_short_cutoff(self):
        # doubling an explicit cutoff must move the value by less than the
        # error reported for the short one
        short = polygamma_integral(2, 1.0, QuadratureSpec(upper_cutoff=20.0))
        long = polygamma_integral(2, 1.0, QuadratureSpec(upper_cutoff=40.0))
        moved = abs(long.value - short.value)
        assert moved <= short.abs_error_estimate
        assert moved > 0.0

    def test_rel_tol_is_respected(self):
        coarse = QuadratureSpec(rel_tol=1e-6)
        r = polygamma_integral(1, 1.0, coarse)
        truth = math.pi * math.pi / 6.0
        assert abs(r.value - truth) <= 10.0 * 1e-6 * truth
        assert abs(r.value - truth) <= r.abs_error_estimate

    def test_subdivision_budget_failure_is_loud(self):
        # a high-order integrand at small x needs ~15 splits to hit 1e-14,
        # so a 10-split budget must fail by raising, never silently
        tight = QuadratureSpec(rel_tol=1e-14, max_subdivisions=10)
        with pytest.raises(QuadratureError):
            polygamma_integral(40, 0.02, tight)

    def test_quadrature_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=1e-20)
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=1e-3)
        with pytest.raises(ValueError):
            QuadratureSpec(upper_cutoff=-5.0)
        with pytest.raises(ValueError):
            QuadratureSpec(max_subdivisions=3)
        # a count, as SeriesSpec.max_terms: no fraction, and no inf that
        # would lift the split budget
        with pytest.raises(TypeError):
            QuadratureSpec(max_subdivisions=10.5)
        with pytest.raises(TypeError):
            QuadratureSpec(max_subdivisions=math.inf)
        count = QuadratureSpec(max_subdivisions=np.int64(12)).max_subdivisions
        assert count == 12 and type(count) is int

    def test_non_finite_result_raises_overflow(self):
        # psi_40(1e-7) is about -8e334: the integrand overflows without a
        # RuntimeWarning (an error under this suite's settings) and the
        # result raises OverflowError, not the ValueError of a bad bar
        for call in (lambda: polygamma_integral(40, 1e-7), lambda: power_integral(40, 1e-7),
                     lambda: gap_integral_even(0.5, 40, 1e-7),
                     lambda: gap_integral_odd(0.5, 40, 1e-7),
                     lambda: polygamma_series(40, 1e-8), lambda: digamma_series(1e-310)):
            with pytest.raises(OverflowError, match="binary64"):
                call()

    @pytest.mark.filterwarnings("error")
    def test_non_finite_starting_cutoff(self):
        # below x ~ 1.7e-307 the cutoff search's start 30/x is inf; the
        # integrand is never evaluated there.  Where the integral (about
        # lead * power!/x^(power+1)) cannot be finite that is an overflow,
        # otherwise the quadrature cannot reach its cutoff
        overflow = [
            (polygamma_integral, (0, 1e-310)),
            (polygamma_integral, (5, 1e-310)),
            (power_integral, (0, 1e-310)),
            (gap_integral_even, (0.5, 1, 1e-308)),
            (gap_integral_odd, (0.5, 0, 1e-310)),
        ]
        for fn, args in overflow:
            with pytest.raises(OverflowError, match="binary64"):
                fn(*args)
        unreachable = [
            (polygamma_integral, (0, 1e-308)),
            (power_integral, (0, 1e-308)),
            (gap_integral_even, (0.99, 0, 1e-310)),
            (gap_integral_even, (0.5, 0, 1e-308)),
            (gap_integral_odd, (0.5, 0, 1e-308)),
        ]
        for fn, args in unreachable:
            with pytest.raises(QuadratureError, match="truncation point 30/x is not finite"):
                fn(*args)
        # 30/x is finite but its double is not: the search stops at the last
        # finite candidate instead of evaluating the integrand at inf
        with pytest.raises(QuadratureError, match=r"up to T = 1\.5000000000000002e\+308"):
            polygamma_integral(0, 2e-307)

    def test_panel_sum_past_binary64_is_an_overflow(self):
        # psi_1(7e-155) ~ 2e308: every panel is finite, their sum is not
        with pytest.raises(OverflowError, match="binary64"):
            polygamma_integral(1, 7e-155)

    def test_quadrature_bar_covers_mpmath_referee(self):
        # every quadrature route over the documented domain, judged by a
        # 40-digit referee: psi_n(x) for n <= 40 and x in [1e-3, 1e6], and
        # the gap integrals through (-1)^(p+1) (psi_p(x) - psi_p(x+a))
        # -+ a p!/x^(p+1)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for n in range(MAX_ORDER + 1):
                for x in np.geomspace(1e-3, 1e6, 40).tolist():
                    truth = mpmath.polygamma(n, mpmath.mpf(x))
                    r = polygamma_integral(n, x)
                    err = abs(mpmath.mpf(r.value) - truth)
                    assert err <= r.abs_error_estimate, (n, x, float(err))
            for a in (0.01, 0.3, 0.5, 0.99):
                for p in range(0, MAX_ORDER + 1, 4):
                    for x in (0.05, 1.0, 7.0, 300.0):
                        xm, am = mpmath.mpf(x), mpmath.mpf(a)
                        shifted = (-1) ** (p + 1) * (
                            mpmath.polygamma(p, xm) - mpmath.polygamma(p, xm + am)
                        )
                        power = am * mpmath.factorial(p) / xm ** (p + 1)
                        for fn, truth in ((gap_integral_even, shifted - power),
                                          (gap_integral_odd, shifted + power)):
                            r = fn(a, p, x)
                            err = abs(mpmath.mpf(r.value) - truth)
                            assert err <= r.abs_error_estimate, (fn.__name__, a, p, x, float(err))


class TestThreeWay:
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_engine_series_integral_agree(self, n):
        for x in (0.1, 1.0, 10.0, 100.0):
            e = polygamma(n, x)
            s = polygamma_series(n, x)
            q = polygamma_integral(n, x)
            assert abs(e.value - s.value) <= e.abs_error_estimate + s.abs_error_estimate
            assert abs(e.value - q.value) <= e.abs_error_estimate + q.abs_error_estimate
            assert abs(s.value - q.value) <= s.abs_error_estimate + q.abs_error_estimate

    def test_digamma_three_way(self):
        for x in (0.05, 0.5, 1.0, 2.5, 30.0):
            e = polygamma(0, x)
            s = digamma_series(x)
            q = polygamma_integral(0, x)
            assert abs(e.value - s.value) <= e.abs_error_estimate + s.abs_error_estimate
            assert abs(e.value - q.value) <= e.abs_error_estimate + q.abs_error_estimate
            assert abs(s.value - q.value) <= s.abs_error_estimate + q.abs_error_estimate


class TestGapIntegrals:
    def test_weight_shape_and_limits(self):
        a = 0.3
        ts = np.geomspace(1e-8, 200.0, 60)
        w = cm_weight(a, ts)
        assert np.all(w > 0.0)
        # the sup 1 - a is only approached; strictness is checkable until
        # e^-at dips under an ulp of 0.7, after which w saturates to 1 - a
        assert np.all(w <= 1.0 - a)
        assert np.all(w[ts <= 100.0] < 1.0 - a)
        # small-t slope a(1-a)/2, large-t limit 1-a
        assert cm_weight(a, 1e-9) == pytest.approx(a * (1 - a) / 2 * 1e-9, rel=1e-6)
        assert cm_weight(a, 200.0) == pytest.approx(1.0 - a, rel=1e-12)
        assert cm_weight(a, 0.0) == 0.0

    def test_weight_rejects(self):
        with pytest.raises(ValueError):
            cm_weight(1.0, 1.0)
        with pytest.raises(ValueError):
            cm_weight(0.3, -1.0)

    def test_even_matches_derivative(self):
        # int w(t) t^(k+n) e^-xt dt equals (-1)^n g^(n)(x) for even k
        for (a, k, n, x) in [(0.5, 0, 0, 1.0), (0.3, 2, 1, 0.7), (0.7, 4, 2, 2.0)]:
            q = gap_integral_even(a, k + n, x)
            d = shift_gap_derivative(ShiftParams(a=a, k=k), n, x)
            target = (1.0 if n % 2 == 0 else -1.0) * d.value
            assert abs(q.value - target) <= q.abs_error_estimate + d.abs_error_estimate

    def test_odd_matches_negated_derivative(self):
        # int (2a + w(t)) t^(k+n) e^-xt dt equals (-1)^(n+1) g^(n)(x), odd k
        for (a, k, n, x) in [(0.5, 1, 0, 1.0), (0.3, 3, 1, 0.7), (0.7, 5, 2, 2.0)]:
            q = gap_integral_odd(a, k + n, x)
            d = shift_gap_derivative(ShiftParams(a=a, k=k), n, x)
            target = (-1.0 if n % 2 == 0 else 1.0) * d.value
            assert abs(q.value - target) <= q.abs_error_estimate + d.abs_error_estimate

    def test_odd_bracket_equals_three_integral_composition(self):
        # the odd bracket integral written as its three separate pieces:
        # a n!/x^(n+1) + |psi_m(x)| - |psi_m(x+a)| with m = k + n
        a, k, n, x = 0.5, 1, 1, 1.3
        m = k + n
        q = gap_integral_odd(a, m, x)
        pw = power_integral(m, x)
        at_x = polygamma_integral(m, x)
        at_xa = polygamma_integral(m, x + a)
        mag_sign = 1.0 if m % 2 == 1 else -1.0
        composed = a * pw.value + mag_sign * at_x.value - mag_sign * at_xa.value
        bar = (
            q.abs_error_estimate
            + a * pw.abs_error_estimate
            + at_x.abs_error_estimate
            + at_xa.abs_error_estimate
        )
        assert abs(q.value - composed) <= bar

    def test_gap_integral_rejects(self):
        with pytest.raises(ValueError):
            gap_integral_even(0.0, 1, 1.0)
        with pytest.raises(ValueError):
            gap_integral_even(0.5, -1, 1.0)
        with pytest.raises(ValueError):
            gap_integral_odd(0.5, 1, 0.0)
        # the power is capped like every derivative order: past it t^power
        # overflows inside the integrand and the tail bound leaves its range
        for gap in (gap_integral_even, gap_integral_odd):
            for power in (MAX_ORDER + 1, 1000):
                with pytest.raises(ValueError, match=r"must be in \[0, 40\]"):
                    gap(0.5, power, 1.0)


def _reference_sum(terms):
    """Left to right from the first term, as np.add.accumulate forms it."""
    total = terms[0]
    for term in terms[1:]:
        total += term
    return total


def _reference_panel(f, lo, hi):
    """One panel in Python floats: each rule on its own nodes, its weight *
    value terms summed in node order."""
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    estimates = []
    for nodes, weights in ((oracle._NODES_HI, oracle._WEIGHTS_HI),
                           (oracle._NODES_LO, oracle._WEIGHTS_LO)):
        values = f(np.array([c + h * node for node in nodes.tolist()])).tolist()
        estimates.append(h * _reference_sum([w * y for w, y in zip(weights.tolist(), values)]))
    hi_est, lo_est = estimates
    return hi_est, abs(hi_est - lo_est)


def _reference_integrate(rounds):
    """The rounds of _integrate, one panel and one split at a time.

    Appends the cutoff, the initial panel count and each round's split
    count to rounds, whether it returns or raises.
    """

    def integrate(f, upper, rel_tol, max_subdivisions):
        edges = [0.0]
        step = min(1.0, upper)
        while step < upper:
            edges.append(step)
            step *= 2.0
        edges.append(upper)
        panels = [(lo, hi, *_reference_panel(f, lo, hi)) for lo, hi in zip(edges, edges[1:])]
        rounds.extend((upper, len(panels)))
        splits = 0
        while True:
            total_v = math.fsum(v for _, _, v, _ in panels)
            total_e = math.fsum(e for _, _, _, e in panels)
            allowance = rel_tol * abs(total_v)
            if not total_e > allowance:
                return total_v, total_e
            share = allowance / len(panels)
            worst = max(e for _, _, _, e in panels)
            split = [p for p in panels if p[3] > share or p[3] == worst]
            splits += len(split)
            if splits > max_subdivisions:
                raise QuadratureError(
                    f"needed more than {max_subdivisions} subdivisions for rel_tol={rel_tol}"
                )
            rounds.append(len(split))
            panels = [p for p in panels if not (p[3] > share or p[3] == worst)]
            for lo, hi, _, _ in split:
                mid = 0.5 * (lo + hi)
                panels.append((lo, mid, *_reference_panel(f, lo, mid)))
                panels.append((mid, hi, *_reference_panel(f, mid, hi)))

    return integrate


def _reference_cutoff(f, x, power, lead):
    """Doubling from 30/x, one integrand value at a time."""
    t = 30.0 / x
    for _ in range(200):
        if abs(float(f(np.array([t]))[0])) < 1e-18:
            return t
        t *= 2.0
    raise QuadratureError("no truncation point")


def _outcome(fn, *args):
    """hex of value and bar, or the exception's type and message."""
    try:
        r = fn(*args)
    except QuadratureError as exc:
        return ("raised", str(exc))
    assert type(r.value) is float and type(r.abs_error_estimate) is float
    return (r.value.hex(), r.abs_error_estimate.hex())


# Prints the hex of a fixed set of quadratures; run in a fresh interpreter,
# since OpenBLAS picks its kernel when numpy loads it.
_HEX_SCRIPT = """
import numpy as np
from polycm import gap_integral_even, gap_integral_odd, polygamma_integral
for n in range(41):
    for x in np.geomspace(1e-3, 1e6, 6).tolist():
        r = polygamma_integral(n, x)
        print(n, x, r.value.hex(), r.abs_error_estimate.hex())
for a in (0.01, 0.5, 0.99):
    for k in range(0, 41, 8):
        for gap in (gap_integral_even, gap_integral_odd):
            r = gap(a, k, 1.0)
            print(a, k, r.value.hex(), r.abs_error_estimate.hex())
"""


class TestBatchedPanels:
    """_integrate's rounds of panels, pinned bit for bit against the
    one-panel-at-a-time reference above: the node-order sums, the fsum
    totals, the split rule and the doubling cutoff search."""

    SHORT = QuadratureSpec(upper_cutoff=5.0)
    TIGHT = QuadratureSpec(rel_tol=1e-14, max_subdivisions=10)

    @staticmethod
    def _cases():
        for n in range(MAX_ORDER + 1):
            for x in np.geomspace(1e-3, 1e6, 8).tolist():
                yield polygamma_integral, (n, x)
        for a in (0.01, 0.3, 0.5, 0.99):
            for k in range(0, MAX_ORDER + 1, 4):
                yield gap_integral_even, (a, k, 1.0)
                yield gap_integral_odd, (a, k, 1.0)
        for n in (0, 1, 7, 40):
            for x in (1e-3, 0.5, 30.0):
                yield power_integral, (n, x)
        for n in (0, 2, 40):
            for x in (0.05, 1.0, 30.0):
                yield polygamma_integral, (n, x, TestBatchedPanels.SHORT)
                yield gap_integral_even, (0.3, n, x, TestBatchedPanels.SHORT)
                yield gap_integral_odd, (0.7, n, x, TestBatchedPanels.SHORT)
        yield polygamma_integral, (40, 0.02, TestBatchedPanels.TIGHT)

    def test_matches_panel_by_panel_reference(self, monkeypatch):
        for fn, args in self._cases():
            batched = _outcome(fn, *args)
            with monkeypatch.context() as m:
                m.setattr(oracle, "_integrate", _reference_integrate([]))
                m.setattr(oracle, "_auto_cutoff", _reference_cutoff)
                assert _outcome(fn, *args) == batched, (fn.__name__, args)

    def test_one_integrand_call_per_round(self, monkeypatch):
        # cutoff probes, eight doublings per call up to the one that is the
        # cutoff; one call on every initial panel; then one call per round
        # on both halves of each panel split in it
        run_integral = oracle._run_integral
        for fn, args in self._cases():
            sizes = []
            starts = []

            def counting(f, x, *rest):
                def g(t):
                    sizes.append(np.size(t))
                    return f(t)

                starts.append(30.0 / x)
                return run_integral(g, x, *rest)

            with monkeypatch.context() as m:
                m.setattr(oracle, "_run_integral", counting)
                _outcome(fn, *args)
            rounds = []
            with monkeypatch.context() as m:
                m.setattr(oracle, "_integrate", _reference_integrate(rounds))
                _outcome(fn, *args)
            upper, panels, *split_counts = rounds
            probes = []
            if args[-1] is not self.SHORT:
                [t] = starts
                doublings = 0
                while t != upper:
                    t *= 2.0
                    doublings += 1
                probes = [8] * (doublings // 8 + 1)
            expected = probes + [22 * panels] + [44 * count for count in split_counts]
            assert sizes == expected, (fn.__name__, args)

    def test_budget_counts_split_panels(self, monkeypatch):
        # max_subdivisions is the number of panels split, over all rounds:
        # exactly the count the integral needs passes, one fewer raises
        spec = QuadratureSpec(rel_tol=1e-14)
        rounds = []
        with monkeypatch.context() as m:
            m.setattr(oracle, "_integrate", _reference_integrate(rounds))
            polygamma_integral(40, 0.02, spec)
        needed = sum(rounds[2:])
        assert needed > 10
        enough = QuadratureSpec(rel_tol=1e-14, max_subdivisions=needed)
        assert _outcome(polygamma_integral, 40, 0.02, enough) == _outcome(
            polygamma_integral, 40, 0.02, spec)
        with pytest.raises(QuadratureError):
            polygamma_integral(40, 0.02, QuadratureSpec(rel_tol=1e-14, max_subdivisions=needed - 1))

    def test_same_bits_under_another_blas_kernel(self):
        # a BLAS-ordered sum (np.dot) changes bits between OpenBLAS kernels;
        # the fixed-order sums must not.  Without OpenBLAS both runs agree
        # trivially
        src = str(Path(oracle.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        outputs = []
        for extra in ({}, {"OPENBLAS_CORETYPE": "Prescott"}):
            done = subprocess.run([sys.executable, "-c", _HEX_SCRIPT], env={**env, **extra},
                                  capture_output=True, text=True, timeout=120, check=True)
            outputs.append(done.stdout)
        assert outputs[0].count("\n") == 41 * 6 + 3 * 6 * 2
        assert outputs[0] == outputs[1]
