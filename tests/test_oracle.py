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
    SeriesSpec,
    ShiftParams,
    cm_weight,
    digamma_series,
    gap_integral_even,
    gap_integral_odd,
    polygamma,
    polygamma_integral,
    polygamma_series,
    shift_gap_derivative,
)
from polycm.constants import GAMMA_EULER
from polycm.oracle import power_integral

BIG = SeriesSpec(max_terms=4_000_000)


def quadrature_referee(mpmath, name, args):
    """The exact value, at mpmath's working precision, of the quadrature
    route called name at args: psi_n(x), n!/x^(n+1), or with
    D = psi_p(x + a) - psi_p(x) the gap integrals (-1)^p D -+ a p!/x^(p+1),
    minus for the even one."""
    if name == "polygamma_integral":
        n, x = args
        return mpmath.polygamma(n, mpmath.mpf(x))
    if name == "power_integral":
        n, x = args
        return mpmath.factorial(n) / mpmath.mpf(x) ** (n + 1)
    a, p, x = map(mpmath.mpf, args)
    shifted = (-1) ** args[1] * (mpmath.polygamma(p, x + a) - mpmath.polygamma(p, x))
    power = a * mpmath.factorial(p) / x ** (p + 1)
    return shifted - power if name == "gap_integral_even" else shifted + power


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
        # -2 zeta(3) and the last reference, -24 (zeta(5) - 1), are 40-digit
        # mpmath values rounded once
        cases = [
            (1, 1.0, math.pi * math.pi / 6.0),
            (2, 1.0, -2.4041138063191885),
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

    def test_default_term_count_is_set_by_its_rule(self):
        # the default K is the least power of two at which the
        # Euler-Maclaurin remainder part of every bar is at most 2^-24 of
        # the bar over n <= 40 and x in [1e-3, 1e6]; the grid holds the
        # worst point at K = 256, (40, 1283)
        xs = [10.0 ** (-3.0 + 9.0 * i / 240) for i in range(241)] + [1283.0]

        def worst_share(spec):
            k = spec.max_terms
            worst = 0.0
            for n in range(MAX_ORDER + 1):
                for x in xs:
                    if n == 0:
                        r, rem = digamma_series(x, spec), oracle._em_terms(0, float(k))[1]
                    else:
                        r = polygamma_series(n, x, spec)
                        rem = math.factorial(n) * oracle._em_terms(n, k + x)[1]
                    worst = max(worst, rem / r.abs_error_estimate)
            return worst

        k = SeriesSpec().max_terms
        assert k & (k - 1) == 0, k
        assert worst_share(SeriesSpec()) <= 2.0**-24
        assert worst_share(SeriesSpec(max_terms=k // 2)) > 2.0**-24

    def test_chunked_sum_matches_one_list(self, monkeypatch):
        # past two edges of 65,536-term chunks, the sum of the terms formed
        # as one array keeps the bits of one math.fsum over every term,
        # formed a chunk at a time, and the tail in one Python list
        chunk = 1 << 16

        def one_list(term, first, count, tail):
            terms = []
            for lo in range(first, count, chunk):
                hi = min(lo + chunk, count)
                terms.extend(term(np.arange(lo, hi, dtype=float)).tolist())
            return math.fsum(terms + tail)

        spec = SeriesSpec(max_terms=2 * chunk + 7)
        calls = [(digamma_series, (x, spec)) for x in (1e-3, 0.5, 30.0)]
        calls += [(polygamma_series, (n, x, spec)) for n, x in ((1, 0.5), (5, 1.3), (40, 2.0))]
        for fn, args in calls:
            whole = fn(*args)
            with monkeypatch.context() as m:
                m.setattr(oracle, "_fsum_series", one_list)
                reference = fn(*args)
            assert whole.value.hex() == reference.value.hex(), (fn.__name__, args)
            assert whole.abs_error_estimate.hex() == reference.abs_error_estimate.hex()


class TestQuadrature:
    def test_digamma_at_one_is_minus_gamma(self):
        # the integrand vanishes identically at x = 1
        r = polygamma_integral(0, 1.0)
        assert r.value == pytest.approx(-GAMMA_EULER, abs=1e-15)

    def test_closed_forms(self):
        cases = [
            (0, 0.5, -GAMMA_EULER - 2.0 * math.log(2.0)),
            (1, 1.0, math.pi * math.pi / 6.0),
            (2, 1.0, -2.4041138063191885),  # -2 zeta(3), 40-digit mpmath rounded once
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

    def test_tail_honesty_on_short_cutoff(self, monkeypatch):
        # doubling a forced cutoff must move the value by less than the
        # error reported for the short one
        monkeypatch.setattr(oracle, "_auto_cutoff", lambda power, rate, lead, divides: 20.0)
        short = polygamma_integral(2, 1.0)
        monkeypatch.setattr(oracle, "_auto_cutoff", lambda power, rate, lead, divides: 40.0)
        long = polygamma_integral(2, 1.0)
        moved = abs(long.value - short.value)
        assert moved <= short.abs_error_estimate
        assert moved > 0.0

    def test_rel_tol_is_respected(self, monkeypatch):
        monkeypatch.setattr(oracle, "_REL_TOL", 1e-6)
        r = polygamma_integral(1, 1.0)
        truth = math.pi * math.pi / 6.0
        assert abs(r.value - truth) <= 10.0 * 1e-6 * truth
        assert abs(r.value - truth) <= r.abs_error_estimate

    def test_subdivision_budget_failure_is_loud(self, monkeypatch):
        # a high-order integrand at small x needs ~15 splits to hit 1e-14,
        # so a 10-split budget must fail by raising, never silently
        monkeypatch.setattr(oracle, "_REL_TOL", 1e-14)
        monkeypatch.setattr(oracle, "_MAX_SUBDIVISIONS", 10)
        with pytest.raises(QuadratureError):
            polygamma_integral(40, 0.02)

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

    def test_cutoff_is_where_the_envelope_falls_below_the_threshold(self, monkeypatch):
        # the cutoff comes from the integrand's envelope, with no integrand
        # call, yet at it every integrand is below 1e-18; for psi_n at
        # n >= 1 and power_integral the envelope is the integrand, so T is
        # the first candidate 30/x * 2^j at which the integrand is below
        # 1e-18, where a search that evaluates the integrand stops too
        seen = []

        def recorded(f, upper):
            seen.append((f, upper))
            return 0.0, 0.0

        monkeypatch.setattr(oracle, "_integrate", recorded)
        xs = np.geomspace(1e-3, 1e6, 40).tolist()
        orders = range(MAX_ORDER + 1)
        cases = [(fn, (n, x)) for fn in (polygamma_integral, power_integral)
                 for n in orders for x in xs]
        cases += [(gap, (a, p, x)) for gap in (gap_integral_even, gap_integral_odd)
                  for a in (0.01, 0.5, 0.99) for p in orders for x in xs]
        cases += [(fn, args) for fn, args, settings in TestBatchedPanels._cases()
                  if "_auto_cutoff" not in settings]

        def size(f, t):
            with np.errstate(over="ignore", invalid="ignore"):
                return abs(f(np.array([t]))[0])

        for fn, args in cases:
            seen.clear()
            fn(*args)
            [(f, upper)] = seen
            assert size(f, upper) < 1e-18, (fn.__name__, args, upper)
            if fn is power_integral or (fn is polygamma_integral and args[0] > 0):
                first = upper == 30.0 / args[-1]
                assert first or size(f, upper / 2.0) >= 1e-18, (fn.__name__, args, upper)
        # an envelope above 1e-18 up to the last finite candidate, 2^1023:
        # its exponent there passes what math.exp can form, and the search
        # names that candidate instead of raising the overflow
        with pytest.raises(QuadratureError) as info:
            oracle._auto_cutoff(MAX_ORDER, 30.0 / 2.0**1020, 1.0, False)
        assert f"up to T = {2.0**1023!r}:" in str(info.value)

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

    def test_half_bar_covers_mpmath_referee_where_one_call_suffices(self):
        # at n <= 3 and x in [0.3, 3] the first partition usually meets the
        # tolerance in one integrand call, so the bar rests on one round of
        # |G15 - G7|, which can sit near the rounding level, and on the
        # floor beside it; seeded draws, each within half its bar
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(43)
        log_x = (math.log(0.3), math.log(3.0))
        cases = [(polygamma_integral, (n, x)) for n, x in zip(
            rng.integers(0, 4, 3000).tolist(), np.exp(rng.uniform(*log_x, 3000)).tolist())]
        cases += [(gap_integral_odd if p % 2 else gap_integral_even, (a, p, x))
                  for a, p, x in zip(rng.uniform(0.0, 1.0, 300).tolist(),
                                     rng.integers(0, 4, 300).tolist(),
                                     np.exp(rng.uniform(*log_x, 300)).tolist())]
        worst = (0.0,)
        with mpmath.workdps(20):
            for fn, args in cases:
                r = fn(*args)
                err = abs(mpmath.mpf(r.value) - quadrature_referee(mpmath, fn.__name__, args))
                worst = max(worst, (float(err) / r.abs_error_estimate, fn.__name__, args))
        assert worst[0] <= 0.5, worst

    def test_even_gap_bar_stays_finite_with_its_integral(self):
        # the even gap's rounding term, 4 eps a p!/x^(p+1), is formed
        # through its log: here p!/x^(p+1) alone passes 1e304, while the
        # integral and its bar are finite
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for args in ((0.5, 0, 5e-305), (0.9, 1, 1e-153), (0.5, 2, 3e-102)):
                r = gap_integral_even(*args)
                truth = quadrature_referee(mpmath, "gap_integral_even", args)
                assert abs(mpmath.mpf(r.value) - truth) <= r.abs_error_estimate, args

    def test_digamma_integral_past_1e60_covers_mpmath_referee(self):
        # far from x = 1 the n = 0 integrand is about x - 1 up to t ~ 1/x
        # and about 1/t beyond, so bisection takes hundreds of rounds to
        # reach the 1/x scale
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            for x in (1e61, 1e100, 1e300):
                truth = mpmath.digamma(mpmath.mpf(x))
                r = polygamma_integral(0, x)
                err = abs(mpmath.mpf(r.value) - truth)
                assert err <= r.abs_error_estimate, (x, float(err))


class TestGaussLegendreTables:
    """The literal rule tables against 50-digit Gauss-Legendre rules, so no
    check depends on the host's numpy or LAPACK."""

    RULES = [(15, "_NODES_HI", "_WEIGHTS_HI"), (7, "_NODES_LO", "_WEIGHTS_LO")]

    @staticmethod
    def _rule(name_nodes, name_weights):
        nodes = getattr(oracle, name_nodes)
        weights = getattr(oracle, name_weights)
        assert nodes.dtype == weights.dtype == np.float64
        return nodes.tolist(), weights.tolist()

    @pytest.mark.parametrize("n,name_nodes,name_weights", RULES)
    def test_within_ulps_of_the_exact_rule(self, n, name_nodes, name_weights):
        # each exact node is the root of P_n nearest the float one, and its
        # weight 2/((1-x^2) P_n'(x)^2) with P_n'(x) = n P_{n-1}(x)/(1-x^2).
        # Measured worst: 0.66 ulp on the nodes; 37.7 ulp on the 15-point
        # weights and 4.4 on the 7-point ones
        mpmath = pytest.importorskip("mpmath")
        nodes, weights = self._rule(name_nodes, name_weights)
        assert len(nodes) == len(weights) == n
        with mpmath.workdps(50):
            for x, w in zip(nodes, weights):
                root = mpmath.findroot(lambda t: mpmath.legendre(n, t), mpmath.mpf(x))
                slope = n * mpmath.legendre(n - 1, root) / (1 - root**2)
                exact_w = 2 / ((1 - root**2) * slope**2)
                if x:
                    assert abs(mpmath.mpf(x) - root) <= math.ulp(x), (n, x)
                else:
                    assert abs(root) < mpmath.mpf(10) ** -45, (n, x)
                assert abs(mpmath.mpf(w) - exact_w) <= 40 * math.ulp(w), (n, x, w)

    @pytest.mark.parametrize("n,name_nodes,name_weights", RULES)
    def test_exactly_symmetric(self, n, name_nodes, name_weights):
        nodes, weights = self._rule(name_nodes, name_weights)
        assert nodes == [-x for x in reversed(nodes)]
        assert weights == weights[::-1]
        assert nodes == sorted(nodes)
        if n == 15:
            middle = nodes[n // 2]
            assert middle == 0.0 and math.copysign(1.0, middle) == 1.0

    @pytest.mark.parametrize("n,name_nodes,name_weights", RULES)
    def test_integrates_even_powers_up_to_its_degree(self, n, name_nodes, name_weights):
        # the n-point rule is exact for degree 2n - 1; the float tables, summed
        # exactly, miss 2/(2j+1) by at most 8.7 ulp (15 points, j = 14)
        mpmath = pytest.importorskip("mpmath")
        nodes, weights = self._rule(name_nodes, name_weights)
        with mpmath.workdps(50):
            for j in range(n):
                exact = mpmath.mpf(2) / (2 * j + 1)
                total = mpmath.fsum(mpmath.mpf(w) * mpmath.mpf(x) ** (2 * j)
                                    for x, w in zip(nodes, weights))
                assert abs(total - exact) <= 10 * math.ulp(float(exact)), (n, j)


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
        # exp_diff_ratio's message, with its scalar rule carried over to
        # arrays: nan and inf, alone or in an array, are rejected as a
        # negative t is, not mapped to nan; an int beyond binary64, alone or
        # in a sequence, as the infinity of its sign
        for t in (math.inf, math.nan, np.array([1.0, math.nan]), 10**400, -(10**400),
                  [1.0, 10**400], (1.0, 10**400), (1.0, -(10**400))):
            with pytest.raises(ValueError, match="t must be finite and >= 0"):
                cm_weight(0.5, t)

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


def _record_rounds(m):
    """Patches oracle._panels to record, as _integrate makes its calls, the
    cutoff, the initial panel count and each round's split count; returns
    the list it appends them to."""
    rounds = []
    panels = oracle._panels

    def recorded(f, lo, hi):
        # the first call holds every initial panel and ends at the cutoff;
        # each later one, both halves of every panel split in its round
        if rounds:
            rounds.append(len(lo) // 2)
        else:
            rounds.extend((hi[-1], len(lo)))
        return panels(f, lo, hi)

    m.setattr(oracle, "_panels", recorded)
    return rounds


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
    """_integrate's rounds of panels: one integrand call per round and a
    budget that counts split panels.  tests/test_bits.py checks them
    against the base commit on these cases under the quadrature rule until
    BASE advances."""

    #: Module settings a case runs under: a forced cutoff of 5.0, and a
    #: tolerance the 10-split budget cannot meet.
    SHORT = {"_auto_cutoff": lambda power, rate, lead, divides: 5.0}
    TIGHT = {"_REL_TOL": 1e-14, "_MAX_SUBDIVISIONS": 10}

    @staticmethod
    def _cases():
        default, short = {}, TestBatchedPanels.SHORT
        for n in range(MAX_ORDER + 1):
            for x in np.geomspace(1e-3, 1e6, 8).tolist():
                yield polygamma_integral, (n, x), default
        for a in (0.01, 0.3, 0.5, 0.99):
            for k in range(0, MAX_ORDER + 1, 4):
                yield gap_integral_even, (a, k, 1.0), default
                yield gap_integral_odd, (a, k, 1.0), default
        for n in (0, 1, 7, 40):
            for x in (1e-3, 0.5, 30.0):
                yield power_integral, (n, x), default
        for n in (0, 2, 40):
            for x in (0.05, 1.0, 30.0):
                yield polygamma_integral, (n, x), short
                yield gap_integral_even, (0.3, n, x), short
                yield gap_integral_odd, (0.7, n, x), short
        yield polygamma_integral, (40, 0.02), TestBatchedPanels.TIGHT

    @staticmethod
    def _set(m, settings):
        for name, value in settings.items():
            m.setattr(oracle, name, value)

    def test_one_integrand_call_per_round(self, monkeypatch):
        # no call before the first panels: one call on every initial panel,
        # then one call per round on both halves of each panel split in it
        run_integral = oracle._run_integral
        for fn, args, settings in self._cases():
            sizes = []

            def counting(f, *rest, **options):
                def g(t):
                    sizes.append(np.size(t))
                    return f(t)

                return run_integral(g, *rest, **options)

            with monkeypatch.context() as m:
                self._set(m, settings)
                m.setattr(oracle, "_run_integral", counting)
                rounds = _record_rounds(m)
                _outcome(fn, *args)
            _, panels, *split_counts = rounds
            expected = [22 * panels] + [44 * count for count in split_counts]
            assert sizes == expected, (fn.__name__, args, settings)

    def test_budget_counts_split_panels(self, monkeypatch):
        # the budget is the number of panels split, over all rounds:
        # exactly the count the integral needs passes, one fewer raises
        monkeypatch.setattr(oracle, "_REL_TOL", 1e-14)
        with monkeypatch.context() as m:
            rounds = _record_rounds(m)
            polygamma_integral(40, 0.02)
        needed = sum(rounds[2:])
        assert needed > 10
        unlimited = _outcome(polygamma_integral, 40, 0.02)
        monkeypatch.setattr(oracle, "_MAX_SUBDIVISIONS", needed)
        assert _outcome(polygamma_integral, 40, 0.02) == unlimited
        monkeypatch.setattr(oracle, "_MAX_SUBDIVISIONS", needed - 1)
        with pytest.raises(QuadratureError):
            polygamma_integral(40, 0.02)

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
