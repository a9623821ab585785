"""Constants: Bernoulli numbers and scalar constants."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from polycm import polygamma
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
    exact = _bernoulli_exact(42)
    assert len(_BERNOULLI) == len(exact) == 43
    for m, (stored, b) in enumerate(zip(_BERNOULLI, exact)):
        assert stored.hex() == float(b).hex(), m


@pytest.mark.parametrize("m", range(1, 8))
def test_zeta_bernoulli_cross_tie(m):
    # psi_{2m-1}(1) = (2m-1)! zeta(2m) = (-1)^(m+1) B_2m (2 pi)^(2m) / (4m)
    # ties the Bernoulli cache to the engine's even zeta values; the engine
    # shifts x = 1 up to its threshold before the asymptotic series applies
    closed = (-1.0) ** (m + 1) * _BERNOULLI[2 * m] * (2.0 * math.pi) ** (2 * m) / (4.0 * m)
    r = polygamma(2 * m - 1, 1.0)
    assert r.value == pytest.approx(closed, rel=5e-15)
    assert abs(r.value - closed) <= r.abs_error_estimate


def test_scalar_constants():
    assert GAMMA_EULER == 0.5772156649015329
