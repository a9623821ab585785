"""High-accuracy scalar constants: Euler-Mascheroni and Bernoulli numbers.

Bernoulli numbers B_0 .. B_42 are stored as float literals, each the exact
rational value rounded once; running their defining recurrence in floating
point would lose most digits past B_20 to cancellation.
"""

GAMMA_EULER = 0.5772156649015328606065120900824024


#: B_0 .. B_42, each the binary64 value nearest the exact rational; B_m = 0
#: for odd m >= 3.  The engine's series reads B_2 .. B_42, its 21 terms.
#: The test suite re-derives every one from the defining recurrence in
#: exact arithmetic.
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
    8.416930475736826e+17,              # B_42
)
