"""End-to-end acceptance checks at pinned tolerances.

Each test certifies one headline property of the package and records a
one-line verdict that conftest.py prints after the pytest summary.  The
numbered criteria:

  1. recurrence identity for psi_n across ten orders
  2. three independent representations agree within stated error bars
  3. even-order shift gaps are strictly completely monotonic on a scan grid
  4. negated odd-order shift gaps pass the same scan
  5. the exponential ratio (1 - e^-at)/(1 - e^-t), the ratio of 6 at
     (0, a), is squeezed inside (a, 1)
  6. monotonicity of the exponential-difference ratio holds iff its
     parameter condition does, on seeded random parameter pairs
  7. the four half-shift endpoint constants match their closed forms,
     engine route and series-oracle route independently
  8. two-sided bounds hold with margin at every grid point above x = 1
  9. proof integrands match sign-adjusted gap derivatives at seeded points
"""

from __future__ import annotations

import math
import time

import numpy as np

from conftest import record_acceptance

from polycm import (
    GridSpec,
    SeriesSpec,
    ShiftParams,
    bound_table,
    cm_scan,
    digamma_series,
    endpoint_constants,
    exp_diff_ratio,
    factorial_over_power,
    gap_integral_even,
    gap_integral_odd,
    increasing_condition,
    polygamma,
    polygamma_integral,
    polygamma_series,
    shift_gap_derivative,
)
from polycm.oracle import power_integral

SEED = 20260822
A_SET = (0.1, 0.3, 0.5, 0.7, 0.9)


def test_recurrence_identity_across_orders():
    t0 = time.perf_counter()
    xs = np.geomspace(1e-2, 1e4, 60)
    worst = 0.0
    for n in range(11):
        fact = float(math.factorial(n))
        sign = 1.0 if n % 2 == 0 else -1.0
        for x in xs:
            x = float(x)
            lhs = polygamma(n, x + 1.0).value - polygamma(n, x).value
            rhs = sign * fact / x ** (n + 1)
            scale = 1.0 + abs(polygamma(n, x).value)
            worst = max(worst, abs(lhs - rhs) / scale)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-11 and elapsed < 1.0
    record_acceptance(
        1,
        ok,
        f"recurrence identity, n <= 10 on 60 log points in [1e-2, 1e4]: "
        f"worst relative residual {worst:.2e} (tol 1e-11), {elapsed:.2f}s",
    )
    assert worst <= 1e-11
    assert elapsed < 1.0


def test_three_route_agreement():
    t0 = time.perf_counter()
    xs = np.geomspace(0.1, 100.0, 50)
    worst_ratio = 0.0
    for n in range(9):
        for x in xs:
            x = float(x)
            eng = polygamma(n, x)
            ser = digamma_series(x) if n == 0 else polygamma_series(n, x)
            quad = polygamma_integral(n, x)
            for r1, r2 in ((eng, ser), (eng, quad), (ser, quad)):
                bar = r1.abs_error_estimate + r2.abs_error_estimate
                worst_ratio = max(worst_ratio, abs(r1.value - r2.value) / bar)
    elapsed = time.perf_counter() - t0
    ok = worst_ratio <= 1.0 and elapsed < 30.0
    record_acceptance(
        2,
        ok,
        f"three-route agreement, n <= 8 on 50 log points in [0.1, 100]: "
        f"worst |diff|/bars {worst_ratio:.3f} (must be <= 1), {elapsed:.1f}s",
    )
    assert worst_ratio <= 1.0
    assert elapsed < 30.0


def _run_scans(k_values):
    grid = GridSpec(lo=0.1, hi=100.0, points=60)
    worst_clearance = math.inf
    all_passed = True
    for a in A_SET:
        for k in k_values:
            report = cm_scan(ShiftParams(a=a, k=k), 8, grid)
            all_passed = all_passed and report.passed
            if report.witness_point is not None and report.witness_error > 0.0:
                worst_clearance = min(
                    worst_clearance, report.min_signed_value / report.witness_error
                )
    return all_passed, worst_clearance


def test_even_gap_complete_monotonicity_scan():
    t0 = time.perf_counter()
    all_passed, clearance = _run_scans((0, 2, 4))
    elapsed = time.perf_counter() - t0
    ok = all_passed and clearance > 1.0 and elapsed < 10.0
    record_acceptance(
        3,
        ok,
        f"even-order gap CM scan, a in {A_SET}, k in (0, 2, 4), orders 0..8: "
        f"all passed = {all_passed}, min signed/error clearance {clearance:.1f}x, "
        f"{elapsed:.2f}s",
    )
    assert all_passed
    assert clearance > 1.0
    assert elapsed < 10.0


def test_odd_gap_negation_scan():
    t0 = time.perf_counter()
    all_passed, clearance = _run_scans((1, 3, 5))
    elapsed = time.perf_counter() - t0
    ok = all_passed and clearance > 1.0 and elapsed < 10.0
    record_acceptance(
        4,
        ok,
        f"odd-order negated gap CM scan, a in {A_SET}, k in (1, 3, 5), orders 0..8: "
        f"all passed = {all_passed}, min signed/error clearance {clearance:.1f}x, "
        f"{elapsed:.2f}s",
    )
    assert all_passed
    assert clearance > 1.0
    assert elapsed < 10.0


def test_exponential_ratio_squeeze():
    # the upper margin is ~ e^-at, so t is capped at 20 to keep the true
    # margin above the 1e-12 slack at the (0.95, 20) corner
    a_values = np.linspace(0.05, 0.95, 30)
    t_values = np.geomspace(1e-4, 20.0, 30)
    worst_lo = math.inf
    worst_hi = math.inf
    for a in a_values:
        a = float(a)
        for t in t_values:
            r = exp_diff_ratio(0.0, a, float(t))
            worst_lo = min(worst_lo, r - a)
            worst_hi = min(worst_hi, 1.0 - r)
    ok = worst_lo > 1e-12 and worst_hi > 1e-12
    record_acceptance(
        5,
        ok,
        f"squeeze a < (1 - e^-at)/(1 - e^-t) < 1 on a 30x30 (a, t) grid: "
        f"min(r - a) {worst_lo:.2e}, min(1 - r) {worst_hi:.2e} (both > 1e-12)",
    )
    assert worst_lo > 1e-12
    assert worst_hi > 1e-12


def test_ratio_monotonicity_iff_condition():
    rng = np.random.default_rng(SEED)
    true_pairs: list[tuple[float, float]] = []
    false_pairs: list[tuple[float, float]] = []
    while len(true_pairs) < 20 or len(false_pairs) < 10:
        al, be = rng.uniform(-2.0, 2.0, size=2)
        if al == be:
            continue
        p = (float(al), float(be))
        if increasing_condition(*p):
            if len(true_pairs) < 20:
                true_pairs.append(p)
        else:
            if len(false_pairs) < 10:
                false_pairs.append(p)

    ts = np.geomspace(1e-4, 50.0, 200)

    def values(p: tuple[float, float]) -> np.ndarray:
        return np.array([exp_diff_ratio(*p, float(t)) for t in ts])

    increasing_ok = 0
    for p in true_pairs:
        v = values(p)
        d = np.diff(v)
        scale = np.maximum(np.abs(v[:-1]), 1.0)
        if not np.any(d < -1e-12 * scale):
            increasing_ok += 1

    decrease_found = 0
    for p in false_pairs:
        v = values(p)
        d = np.diff(v)
        scale = np.maximum(np.abs(v[:-1]), 1.0)
        if np.any(d < -1e-9 * scale):
            decrease_found += 1

    ok = increasing_ok == 20 and decrease_found == 10
    record_acceptance(
        6,
        ok,
        f"ratio monotonicity iff condition, seeded pairs: "
        f"{increasing_ok}/20 condition-true pairs nondecreasing, "
        f"{decrease_found}/10 condition-false pairs show a strict decrease",
    )
    assert increasing_ok == 20
    assert decrease_found == 10


def test_half_shift_endpoint_constants():
    closed = {
        0: (1.5 - 2.0 * math.log(2.0), 1e-12, "3/2 - 2 ln 2"),
        1: (math.pi * math.pi / 3.0 - 4.5, 1e-9, "pi^2/3 - 9/2"),
        # 40-digit mpmath, rounded once
        2: (0.5753171620848686, 1e-9, "15 - 12 zeta(3)"),
        3: (14.0 * math.pi**4 / 15.0 - 99.0, 1e-8, "14 pi^4/15 - 99"),
    }
    big = SeriesSpec(max_terms=4_000_000)
    worst_engine = 0.0
    series_ok = True
    details = []
    for k, (target, tol, label) in closed.items():
        engine = endpoint_constants(ShiftParams(a=0.5, k=k)).value
        diff = abs(engine - target)
        worst_engine = max(worst_engine, diff / tol)
        details.append(f"k={k} {label}: engine |diff| {diff:.1e} (tol {tol:g})")
        assert diff <= tol, (k, label, engine, target)

        if k == 0:
            hi = digamma_series(1.5, big)
            lo = digamma_series(1.0, big)
            route = hi.value - lo.value - 0.5
        else:
            hi = polygamma_series(k, 1.5, big)
            lo = polygamma_series(k, 1.0, big)
            route = hi.value - lo.value - 0.5 * float(math.factorial(k))
        bar = hi.abs_error_estimate + lo.abs_error_estimate
        series_ok = series_ok and abs(route - target) <= bar
        assert abs(route - target) <= bar, (k, route, target, bar)

    ok = worst_engine <= 1.0 and series_ok
    record_acceptance(
        7,
        ok,
        "half-shift endpoint constants vs closed forms: "
        + "; ".join(details)
        + f"; series-oracle cross-check within bars = {series_ok}",
    )
    assert ok


def test_two_sided_bounds_with_margin():
    t0 = time.perf_counter()
    grid = GridSpec(lo=1.001, hi=1000.0, points=50)
    all_passed = True
    worst_ratio = math.inf
    for a in A_SET:
        for k in range(6):
            for row in bound_table(ShiftParams(a=a, k=k), grid):
                all_passed = all_passed and row.passed
                for margin, err in (
                    (row.lower_margin, row.lower_margin_error),
                    (row.upper_margin, row.upper_margin_error),
                ):
                    if err > 0.0:
                        worst_ratio = min(worst_ratio, margin / err)
    elapsed = time.perf_counter() - t0
    ok = all_passed and worst_ratio > 10.0
    record_acceptance(
        8,
        ok,
        f"two-sided bounds on 50-point grids in (1.001, 1000], 30 (a, k) combos: "
        f"all passed = {all_passed}, min margin/error ratio {worst_ratio:.1f}x "
        f"(must exceed 10x), {elapsed:.2f}s",
    )
    assert all_passed
    assert worst_ratio > 10.0


def test_integrand_matches_derivatives_spot_check():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    cases = []
    for _ in range(5):
        a = float(rng.uniform(0.1, 0.9))
        k_even = int(rng.choice(np.array([0, 2, 4])))
        n = int(rng.integers(0, 5))
        x = float(np.exp(rng.uniform(math.log(0.2), math.log(20.0))))
        cases.append((a, k_even, n, x))

        # Even parity: the integrand quadrature equals (-1)^n g^(n)(x).
        quad = gap_integral_even(a, k_even + n, x)
        der = shift_gap_derivative(ShiftParams(a=a, k=k_even), n, x)
        target = ((-1.0) ** n) * der.value
        bar = quad.abs_error_estimate + der.abs_error_estimate
        worst = max(worst, abs(quad.value - target) / bar)
        assert abs(quad.value - target) <= bar, ("even", a, k_even, n, x)

        # Odd parity mirror: quadrature equals (-1)^(n+1) g^(n)(x).
        k_odd = k_even + 1
        quad_o = gap_integral_odd(a, k_odd + n, x)
        der_o = shift_gap_derivative(ShiftParams(a=a, k=k_odd), n, x)
        target_o = ((-1.0) ** (n + 1)) * der_o.value
        bar_o = quad_o.abs_error_estimate + der_o.abs_error_estimate
        worst = max(worst, abs(quad_o.value - target_o) / bar_o)
        assert abs(quad_o.value - target_o) <= bar_o, ("odd", a, k_odd, n, x)

        # The odd integrand also decomposes into three simpler integrals.
        m = k_odd + n
        pw = power_integral(m, x)
        mag_sign = (-1.0) ** (m + 1)
        at_x = polygamma_integral(m, x)
        at_xa = polygamma_integral(m, x + a)
        comp = a * pw.value + mag_sign * at_x.value - mag_sign * at_xa.value
        comp_bar = (
            a * pw.abs_error_estimate
            + at_x.abs_error_estimate
            + at_xa.abs_error_estimate
            + quad_o.abs_error_estimate
        )
        worst = max(worst, abs(quad_o.value - comp) / comp_bar)
        assert abs(quad_o.value - comp) <= comp_bar, ("composition", a, m, x)

    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 and elapsed < 20.0
    record_acceptance(
        9,
        ok,
        f"proof integrand vs sign-adjusted derivatives at 5 seeded (a, k, n, x) "
        f"tuples, both parities plus decomposition: worst |diff|/bars {worst:.3f} "
        f"(must be <= 1), {elapsed:.2f}s",
    )
    assert worst <= 1.0
    assert elapsed < 20.0
