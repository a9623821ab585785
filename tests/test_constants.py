"""Constants: zeta values, Bernoulli numbers, scalar constants."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from polycm import zeta_int
from polycm.constants import _BERNOULLI, GAMMA_EULER


def _bernoulli_exact(count: int) -> list[Fraction]:
    """B_0 .. B_count from sum_{j<=m} C(m+1, j) B_j = 0, in exact rationals.

    B_m = 0 for odd m >= 3, so those indices are neither solved for nor summed.
    """
    values = [Fraction(1)]
    for m in range(1, count + 1):
        if m > 1 and m % 2 == 1:
            values.append(Fraction(0))
            continue
        acc = Fraction(0)
        for j in range(m):
            if j < 2 or j % 2 == 0:
                acc += math.comb(m + 1, j) * values[j]
        values.append(-acc / (m + 1))
    return values


def test_zeta_closed_forms():
    assert zeta_int(2) == math.pi * math.pi / 6.0
    assert zeta_int(4) == math.pi**4 / 90.0


def test_zeta_3_against_brute_sum():
    # independent oracle: direct sum of 2e6 terms closed with the midpoint
    # integral tail 1/(2K^2) + 1/(2K^3); truncation error is O(K^-4)
    big_k = 2_000_000
    k = np.arange(1, big_k + 1, dtype=float)
    est = float(np.sum(k**-3.0)) + 1.0 / (2.0 * big_k**2) + 0.5 * big_k**-3.0
    assert abs(zeta_int(3) - est) < 1e-14


def test_zeta_known_digits():
    assert zeta_int(3) == pytest.approx(1.2020569031595943, abs=1e-14)
    assert zeta_int(5) == pytest.approx(1.0369277551433699, abs=1e-14)


def test_zeta_large_s_approaches_one():
    # zeta(s) - 1 ~ 2^-s: at s = 40 the excess is still resolvable in a
    # double and must be reproduced to the last bit
    assert abs(zeta_int(40) - 1.0 - 2.0**-40) <= 1e-15
    # at s = 60 the true excess ~8.7e-19 is under half an ulp of 1.0, so
    # the correctly rounded value is exactly 1.0
    assert zeta_int(60) == 1.0
    assert zeta_int(80) >= 1.0


def test_zeta_decreasing_in_s():
    values = [zeta_int(s) for s in range(2, 30)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(v > 1.0 for v in values)


def test_zeta_rejects_bad_arguments():
    with pytest.raises(ValueError):
        zeta_int(1)
    with pytest.raises(ValueError):
        zeta_int(0)
    with pytest.raises(ValueError):
        zeta_int(-3)
    with pytest.raises(TypeError):
        zeta_int(2.5)


def test_bernoulli_exact_values():
    # the cache must round the exact rationals, not approximate them
    assert _BERNOULLI[2] == float(Fraction(1, 6))
    assert _BERNOULLI[4] == float(Fraction(-1, 30))
    assert _BERNOULLI[6] == float(Fraction(1, 42))
    assert _BERNOULLI[10] == float(Fraction(5, 66))
    assert _BERNOULLI[12] == float(Fraction(-691, 2730))
    assert _BERNOULLI[30] == float(Fraction(8615841276005, 14322))


def test_bernoulli_literals_are_the_exact_values_rounded_once():
    # float(Fraction) rounds the exact quotient once, to nearest
    exact = _bernoulli_exact(60)
    assert len(_BERNOULLI) == len(exact) == 61
    for m, (stored, b) in enumerate(zip(_BERNOULLI, exact)):
        assert stored.hex() == float(b).hex(), m


@pytest.mark.parametrize("m", range(1, 8))
def test_zeta_bernoulli_cross_tie(m):
    # zeta(2m) = (-1)^(m+1) B_2m (2 pi)^(2m) / (2 (2m)!) ties the two caches
    # together; zeta comes from summation, Bernoulli from the recurrence
    closed = (
        (-1.0) ** (m + 1)
        * _BERNOULLI[2 * m]
        * (2.0 * math.pi) ** (2 * m)
        / (2.0 * math.factorial(2 * m))
    )
    assert zeta_int(2 * m) == pytest.approx(closed, rel=5e-15)


def test_scalar_constants():
    assert GAMMA_EULER == 0.5772156649015329
