"""High-accuracy scalar constants: Euler-Mascheroni, integer zeta values, Bernoulli numbers.

Zeta at 2 and 4 comes from the closed forms pi^2/6 and pi^4/90; every other
integer argument uses direct summation plus an Euler-Maclaurin tail, which
keeps the truncation error certifiably below 1e-14 without special-casing
slow convergence near s = 2.  Bernoulli numbers are generated once at import
with the defining recurrence in exact rational arithmetic and rounded once at
the end; running the same recurrence in floating point loses most digits past
B_20 to cancellation.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

GAMMA_EULER = 0.5772156649015328606065120900824024
PI = math.pi
LN2 = math.log(2.0)

#: Largest m accepted by bernoulli_even.  |B_62| > 3e34 and keeps growing;
#: indices past 30 never survive division by the matching power in binary64.
MAX_BERNOULLI_M = 30

_EM_BASE = 20            # terms summed directly before the Euler-Maclaurin tail
_EM_MAX_CORRECTIONS = 14


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


#: B_0 .. B_60 as floats, each rounded once from its exact value.
_BERNOULLI = tuple(float(b) for b in _bernoulli_exact(2 * MAX_BERNOULLI_M))


def _zeta_euler_maclaurin(s: int) -> float:
    """zeta(s) for integer s >= 2 by Euler-Maclaurin off a short direct sum.

    zeta(s) = sum_{k<N} k^-s + N^(1-s)/(s-1) + N^-s/2
              + sum_j B_2j/(2j)! * s(s+1)...(s+2j-2) * N^(-s-2j+1)

    with N = 20 the first correction is already ~1e-28 relative at s = 2, so
    the loop below terminates almost immediately; the term-size stopping rule
    is there for form, not speed.
    """
    n = _EM_BASE
    total = 0.0
    for k in range(1, n):
        total += float(k) ** (-s)
    total += float(n) ** (1 - s) / (s - 1) + 0.5 * float(n) ** (-s)
    for j in range(1, _EM_MAX_CORRECTIONS + 1):
        term = (
            _BERNOULLI[2 * j]
            * math.perm(s + 2 * j - 2, 2 * j - 1)
            / (math.factorial(2 * j) * float(n) ** (s + 2 * j - 1))
        )
        total += term
        if abs(term) < 1e-16 * abs(total):
            break
    return total


def zeta_int(s: int) -> float:
    """Riemann zeta at an integer argument s >= 2, absolute error below 1e-14."""
    s = operator.index(s)
    if s < 2:
        raise ValueError(f"zeta_int requires s >= 2, got {s}")
    if s == 2:
        return PI * PI / 6.0
    if s == 4:
        return PI**4 / 90.0
    return _zeta_euler_maclaurin(s)


def bernoulli_even(m: int) -> float:
    """B_2m as a float, for 1 <= m <= 30."""
    m = operator.index(m)
    if m < 1 or m > MAX_BERNOULLI_M:
        raise ValueError(f"bernoulli_even requires 1 <= m <= {MAX_BERNOULLI_M}, got {m}")
    return _BERNOULLI[2 * m]
