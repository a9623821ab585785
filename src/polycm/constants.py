"""High-accuracy scalar constants: Euler-Mascheroni and Bernoulli numbers.

Bernoulli numbers B_0 .. B_60 are stored as float literals, each the exact
rational value rounded once; running their defining recurrence in floating
point would lose most digits past B_20 to cancellation.
"""

from __future__ import annotations

GAMMA_EULER = 0.5772156649015328606065120900824024


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
