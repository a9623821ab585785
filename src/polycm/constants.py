"""High-accuracy scalar constants: Euler-Mascheroni, integer zeta values, Bernoulli numbers.

Zeta at 2 and 4 comes from the closed forms pi^2/6 and pi^4/90; every other
integer argument uses direct summation plus an Euler-Maclaurin tail, which
keeps the truncation error certifiably below 1e-14 without special-casing
slow convergence near s = 2.  Bernoulli numbers B_0 .. B_60 are stored as
float literals, each the exact rational value rounded once; running their
defining recurrence in floating point would lose most digits past B_20 to
cancellation.
"""

from __future__ import annotations

import math
import operator

GAMMA_EULER = 0.5772156649015328606065120900824024
PI = math.pi
LN2 = math.log(2.0)

#: Largest m accepted by bernoulli_even.  |B_62| > 3e34 and keeps growing;
#: indices past 30 never survive division by the matching power in binary64.
MAX_BERNOULLI_M = 30

_EM_BASE = 20            # terms summed directly before the Euler-Maclaurin tail
_EM_MAX_CORRECTIONS = 14


#: B_0 .. B_60, each the binary64 value nearest the exact rational; B_m = 0
#: for odd m >= 3.  The test suite re-derives every one from the defining
#: recurrence in exact arithmetic.
_BERNOULLI = (
    1.0, -0.5,                          # B_0, B_1
    0.16666666666666666, 0.0,           # B_2, B_3
    -0.03333333333333333, 0.0,          # B_4, B_5
    0.023809523809523808, 0.0,          # B_6, B_7
    -0.03333333333333333, 0.0,          # B_8, B_9
    0.07575757575757576, 0.0,           # B_10, B_11
    -0.2531135531135531, 0.0,           # B_12, B_13
    1.1666666666666667, 0.0,            # B_14, B_15
    -7.092156862745098, 0.0,            # B_16, B_17
    54.971177944862156, 0.0,            # B_18, B_19
    -529.1242424242424, 0.0,            # B_20, B_21
    6192.123188405797, 0.0,             # B_22, B_23
    -86580.25311355312, 0.0,            # B_24, B_25
    1425517.1666666667, 0.0,            # B_26, B_27
    -27298231.067816094, 0.0,           # B_28, B_29
    601580873.9006424, 0.0,             # B_30, B_31
    -15116315767.092157, 0.0,           # B_32, B_33
    429614643061.1667, 0.0,             # B_34, B_35
    -13711655205088.332, 0.0,           # B_36, B_37
    488332318973593.2, 0.0,             # B_38, B_39
    -1.9296579341940068e+16, 0.0,       # B_40, B_41
    8.416930475736826e+17, 0.0,         # B_42, B_43
    -4.0338071854059454e+19, 0.0,       # B_44, B_45
    2.1150748638081993e+21, 0.0,        # B_46, B_47
    -1.2086626522296526e+23, 0.0,       # B_48, B_49
    7.500866746076964e+24, 0.0,         # B_50, B_51
    -5.038778101481069e+26, 0.0,        # B_52, B_53
    3.6528776484818122e+28, 0.0,        # B_54, B_55
    -2.849876930245088e+30, 0.0,        # B_56, B_57
    2.3865427499683627e+32, 0.0,        # B_58, B_59
    -2.1399949257225335e+34,            # B_60
)


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
