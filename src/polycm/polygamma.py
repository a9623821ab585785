"""Evaluator for the digamma function and its higher derivatives on x > 0.

Strategy: push the argument upward with the recurrence

    psi_n(x) = psi_n(x + 1) - (-1)^n n! / x^(n+1)

until it clears shift_threshold(n), evaluate the Bernoulli asymptotic series
there, then fold the collected recurrence terms back in.  For n >= 1 the
series magnitude and every folded term share one sign, so the evaluation is
a sum of positive quantities with the final sign (-1)^(n+1) attached at the
end; the only cancellation in the module lives on the n = 0 path, where the
logarithm dominates and the relative error stays at a few ulp.

Every result carries a conservative absolute-error estimate: the magnitude
of the first omitted asymptotic term plus an ulp-level rounding budget over
everything that was added.  The series stops at the first term below
2^-106 of the head's magnitude budget: no such term, nor any after it, can
move a bit of the value, the budget or the bar (see the comment in
polygamma), so the results are those of the full 20-term sum, bit for bit.
Likewise, for n >= 1 the fold stops at the first recurrence term that
leaves the sum unchanged: the terms strictly decrease and rounding is
monotone, so no later term could change it either.

polygamma runs in one pass: a range test on each argument (the _check_*
helpers run only to raise their messages), the shift, the series and the
fold inline, and a result validated once by _result.  A call at or above
shift_threshold(n) takes no shift step and forms no fold: it evaluates the
series at x itself, where an empty fold would only add 0.0.  The module is
pure Python and imports no numpy.  polygamma is the scalar reference for the
array kernel in polycm.cm, which runs the same steps and the same
error-bar formula over whole arrays of orders and arguments at once, with
this module's one per-order table, _ORDERS, gathered whole as its
transpose and libm's log for order 0, and calls polygamma only to raise
its message at the first element on which it raises; cm_scan evaluates
its grids through it.  The kernel's shift pass for n >= 1 forms only the
recurrence terms before a per-element cap, 2^(54/(n+1)) - 1 times x plus
two steps, from which on no term can change the sum (see the cap comment
at _ORDERS), so it holds every term this fold adds.
"""

import math
import operator
import sys

from .constants import _BERNOULLI

#: Hard cap on the derivative order.  Keeps n! comfortably inside binary64;
#: the scans and the CLI reach k + n = 40 itself.
MAX_ORDER = 40

_EPS = sys.float_info.epsilon
#: ln of the largest finite double: math.exp stays finite up to it.
_LOG_MAX = math.log(sys.float_info.max)
_MAX_ASYMPTOTIC_TERMS = 20
#: The series stops before a term below this fraction of the head's
#: magnitude budget; see polygamma for why no bit moves.
_NEGLIGIBLE = 2.0**-106


class EvalResult:
    """A value paired with a conservative absolute-error estimate.

    Immutable: it compares, hashes, prints, pickles and pattern-matches as
    a frozen dataclass of its two fields would, and assigning or deleting
    an attribute raises dataclasses.FrozenInstanceError.  It is written out
    by hand so that `import polycm` loads neither dataclasses nor inspect;
    vars(r) gives its fields as a dict.
    """

    __match_args__ = ("value", "abs_error_estimate")

    value: float
    abs_error_estimate: float

    def __init__(self, value: float, abs_error_estimate: float) -> None:
        if not math.isfinite(abs_error_estimate) or abs_error_estimate < 0.0:
            raise ValueError(
                f"abs_error_estimate must be finite and >= 0, got {abs_error_estimate!r}"
            )
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "abs_error_estimate", abs_error_estimate)

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(value={self.value!r}, "
            f"abs_error_estimate={self.abs_error_estimate!r})"
        )

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return (self.value, self.abs_error_estimate) == (other.value, other.abs_error_estimate)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.value, self.abs_error_estimate))

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


#: _result's builtins, bound once: it runs on every polygamma call, and a
#: module global is one dict lookup where object.__new__ or math.isfinite is
#: a global lookup and an attribute lookup each time.
_new = object.__new__
_setattr = object.__setattr__
_isfinite = math.isfinite


def _result(value: float, bar: float) -> EvalResult:
    """EvalResult for a computed value and bar; OverflowError, not the
    ValueError of a bad bar passed in, when either has left binary64.

    A finite bar >= 0 passes the constructor's check, so the frozen result
    is built as the constructor builds it, without running that check
    again.  A negative bar goes through the constructor and raises its
    ValueError.
    """
    if not (_isfinite(value) and _isfinite(bar)):
        raise OverflowError(f"result left the binary64 range: {value!r} with error bar {bar!r}")
    if bar < 0.0:
        return EvalResult(value, bar)
    # set, not written into result.__dict__ (which is faster): on CPython
    # 3.11 a materialised __dict__ costs 64 bytes more per result and can
    # unshare the class's key table, so that constructed results grow too
    result = _new(EvalResult)
    _setattr(result, "value", value)
    _setattr(result, "abs_error_estimate", bar)
    return result


def shift_threshold(n: int) -> float:
    """Smallest argument at which the asymptotic series is trusted for order n."""
    return float(max(10, n + 8))


#: ln n! for every order, factorial_over_power's log-space branch.
_LOG_FACTORIAL_FLOATS = tuple(math.lgamma(n + 1) for n in range(MAX_ORDER + 1))

# The cap: polygamma's n >= 1 fold stops no later than step c = floor(x r)
# + 2, where r = 2^(54/(n+1)) - 1 (column 1 of _ORDERS), so the array
# kernel forms only the steps j < c.  Its x r is fl(x fl(r)), within 2^-47
# of x r relatively (54/(n+1), pow and - 1 round r, and the product rounds
# once), and x r < 48 * 2^27 = 1.5 * 2^32 for a shifting x (below a
# threshold, so under 48) and n >= 1; so the rounding moves it by under
# 2^-14, and x + c exceeds R = x 2^(54/(n+1)) < 1.5 * 2^32 by more than
# 1 - 2^-14 > 2^-33 R.  fl(x + c) is within 2^-53 of x + c relatively, so
# it exceeds R (1 + 2^-34), and (fl(x + c)/x)^-(n+1) < 2^-54 / (1 + 2^-34).
# libm's pow is within an ulp (2^-52 relatively), both in the fold and in
# its j = 0 term t0 = x^-(n+1) (the margin 2^-34 covers up to 2^17 ulps
# each), so the term at c is below 2^-54 t0 <= 2^-54 acc.  A finite acc >=
# t0 > 48^-41 is normal (an infinite t0 gives the kernel an infinite bar),
# so half an ulp of acc exceeds 2^-54 acc, and acc + the term at c rounds
# to acc.  At c = floor(x r) + 1 the rounding of x r could leave x + c at R
# or below it, with no margin; hence the + 2.
#: The one per-order table: row n holds every float that polygamma and the
#: array kernel in polycm.cm read for order n, formed once here rather than
#: on every call, in the kernel's column order (its _ORDER_ROWS is this
#: table transposed): shift_threshold(n), the shift cap 2^(54/(n+1)) - 1,
#: the exponents -(n+1), n+1, -(n+2) and -n, (n-1)! (0.0 at n = 0, which
#: has no n >= 1 head), n! (the head's half term, the fold's factor and
#: factorial_over_power's numerator) and the sign (-1)^(n+1).
_ORDERS = tuple(
    (
        shift_threshold(n), 2.0 ** (54.0 / (n + 1)) - 1.0,
        float(-(n + 1)), float(n + 1), float(-(n + 2)), float(-n),
        float(math.factorial(n - 1)) if n else 0.0,
        float(math.factorial(n)), 1.0 if n % 2 else -1.0,
    )
    for n in range(MAX_ORDER + 1)
)


def _check_order(n: int) -> int:
    n = operator.index(n)
    if n < 0 or n > MAX_ORDER:
        raise ValueError(f"derivative order must be in [0, {MAX_ORDER}], got {n}")
    return n


def _check_derivative(k: int, n: int) -> int:
    """n as a derivative order taken on top of order k: 0 <= n and k + n <= MAX_ORDER."""
    n = operator.index(n)
    if n < 0 or k + n > MAX_ORDER:
        raise ValueError(
            f"derivative order must be in [0, {MAX_ORDER - k}] on top of k = {k}, got {n}"
        )
    return n


def _as_float(v: float) -> float:
    """float(v), with an int beyond binary64 taken as the infinity of its
    sign, so that a range check rejects it as it rejects that infinity."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _check_shift(a: float) -> float:
    a = _as_float(a)
    if not 0.0 < a < 1.0:
        raise ValueError(f"a must lie strictly in (0, 1), got {a!r}")
    return a


def _check_x(x: float, name: str = "x") -> float:
    x = _as_float(x)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    if x <= 0.0:
        raise ValueError(f"{name} must be positive, got {x!r}")
    return x


#: Row n holds the series coefficients for j = 1 .. _MAX_ASYMPTOTIC_TERMS + 1:
#: -B_2j/(2j) for n = 0 (digamma's minus sign folded in) and
#: B_2j (2j+n-1)!/(2j)! for n >= 1 (the terms of |psi_n|).
_COEFFICIENTS = tuple(
    tuple(
        -(_BERNOULLI[2 * j] / (2 * j)) if n == 0
        else _BERNOULLI[2 * j] * float(math.perm(2 * j + n - 1, n - 1))
        for j in range(1, _MAX_ASYMPTOTIC_TERMS + 2)
    )
    for n in range(MAX_ORDER + 1)
)
#: The first _MAX_ASYMPTOTIC_TERMS entries of each row, the terms the loop adds.
_SERIES_ROWS = tuple(row[:_MAX_ASYMPTOTIC_TERMS] for row in _COEFFICIENTS)


def polygamma(n: int, x: float) -> EvalResult:
    """psi_n(x) for integer order 0 <= n <= 40 and x > 0.

    Relative accuracy is ~1e-14 across x in [1e-3, 1e6]; the returned error
    estimate is an over-bound on the actual absolute error.  OverflowError
    is raised, rather than a silently degraded value, wherever the value,
    its bar or an intermediate power leaves binary64 range: at small x,
    where orders near the cap push the recurrence terms past it, and at
    large x, where y^(n+1) in the asymptotic head overflows although the
    result need not (polygamma(28, 1.2e11) raises; its value, about
    -6.6e-283, is representable).  Its message names n and x, as in
    "psi_28(120000000000.0) left the binary64 range".
    """
    # one range test each; the checkers run only to raise their own messages
    n = operator.index(n)
    if not 0 <= n <= MAX_ORDER:
        _check_order(n)
    # inline rather than through _as_float: a try costs nothing until it raises
    try:
        x = float(x)
    except OverflowError:
        x = math.inf if x > 0 else -math.inf
    if not 0.0 < x < math.inf:
        _check_x(x)
    # ** raises OverflowError where a power overflows, and _result where the
    # value or its bar did (a division overflows to inf silently): one
    # message for either
    try:
        (threshold, _, neg_n_plus_1, n_plus_1, neg_n_plus_2, neg_n, fact_nm1, fact_n,
         sign) = _ORDERS[n]
        # below the threshold the count is at least 1; at or above it the call
        # takes no step and forms no fold (see the fold comment below)
        if x < threshold:
            shift_count = math.ceil(threshold - x)
            y = x + shift_count
        else:
            shift_count = 0
            y = x

        # The asymptotic series at y >= shift_threshold(n):
        #
        #   psi(y)     = ln y - 1/(2y) - sum_j B_2j / (2j y^2j)
        #   |psi_n(y)| = (n-1)!/y^n + n!/(2 y^(n+1))
        #                + sum_j B_2j (2j+n-1)!/((2j)! y^(2j+n))
        #
        # giving value, truncation bound trunc and magnitude budget; (n-1)!
        # and n! are _ORDERS's, each the exact factorial rounded once.  trunc is
        # the first term not added: the first below _NEGLIGIBLE times the
        # head's budget, or the one after the 20-term cap.  The terms never
        # grow again: at y >= shift_threshold(n) each term is at most 0.4575
        # times the one before (the largest |c_(j+1)/c_j| / y^2 over n <= 40,
        # j < 20).
        #
        # Stopping at a negligible term gives the bits of the full sum.  A term
        # below 2^-106 of the budget, and every smaller one after it, is under
        # half an ulp of the value and of the budget, so adding it changes
        # neither.  The bar is trunc + E with E = eps (2 budget' + 8 |total|)
        # >= 2^-51 budget (budget' only grows from this budget), so half an ulp
        # of E exceeds 2^-105 budget, and trunc + E == E both for this
        # truncation bound and for the full sum's, a later and smaller term.
        # E is a normal number unless y^-(n+2) underflowed to 0, and then every
        # term and both bounds are 0.
        inv2 = 1.0 / (y * y)
        # inv2 and y ** -(n + 2) round differently, so each head keeps its own power
        if n == 0:
            value = math.log(y) - 0.5 / y
            budget = abs(value) + 1.0 / y
            power = inv2
        else:
            lead = fact_nm1 * y**neg_n
            half = fact_n / (2.0 * y**n_plus_1)
            value = budget = lead + half
            power = y**neg_n_plus_2
        negligible = _NEGLIGIBLE * budget
        for c in _SERIES_ROWS[n]:
            term = c * power
            size = abs(term)
            if size < negligible:
                trunc = size
                break
            value += term
            budget += size
            power *= inv2
        else:
            trunc = abs(_COEFFICIENTS[n][_MAX_ASYMPTOTIC_TERMS] * power)

        if n == 0:
            if shift_count:
                shift = 0.0
                for j in range(shift_count):
                    shift += 1.0 / (x + j)
                value -= shift
                budget += shift
            err = trunc + _EPS * (2.0 * budget + 8.0 * abs(value))
            return _result(value, err)
        # for n >= 1, value is |psi_n| until the sign (-1)^(n+1) goes on at the end
        # The fold stops at the first term that leaves acc unchanged, with the
        # bits of the full fold.  The terms (x + j)^-(n+1) strictly decrease
        # in j: below the threshold each is at most (9/10)^2 = 0.81 times the
        # one before, far beyond the rounding of x + j and of the power.  And
        # rounding is monotone, so acc <= fl(acc + later term) <= fl(acc +
        # this term) == acc for every term after it.  The largest term, the
        # one that can overflow, is the j = 0 term, which every shift forms,
        # so the same arguments raise.  The n = 0 fold above runs every step
        # of a shift: for x above about 1e-15 each of its 1/(x + j) moves the
        # sum, so a stop test there would only cost time.  A call at or above
        # the threshold takes no step, and neither fold is formed: an empty
        # fold would add exactly 0.0 (n! * 0.0 for n >= 1) to a value and a
        # budget that are never -0.0, which leaves both bits as they are, and
        # at x >= 10 no shift term could overflow.  The array kernel forms
        # only the steps before a cap, which holds every step this fold adds
        # (see the cap comment at _ORDERS).
        if shift_count:
            acc = 0.0
            for j in range(shift_count):
                total = acc + (x + j) ** neg_n_plus_1
                if total == acc:
                    break
                acc = total
            fact_acc = fact_n * acc
            value += fact_acc
            budget += fact_acc
        err = trunc + _EPS * (2.0 * budget + 8.0 * value)
        return _result(sign * value, err)
    except OverflowError:
        raise OverflowError(f"psi_{n}({x!r}) left the binary64 range") from None


def factorial_over_power(n: int, x: float) -> float:
    """n! / x^(n+1), switching to log-space when the direct power overflows.

    Returns inf (or 0.0) when the true value leaves binary64 range.
    """
    n = _check_order(n)
    x = _check_x(x)
    row = _ORDERS[n]
    exponent, fact_n = row[3], row[7]  # n + 1 and n!
    log_value = _LOG_FACTORIAL_FLOATS[n] - exponent * math.log(x)
    if log_value > _LOG_MAX:
        return math.inf
    if log_value < -745.0:
        return 0.0
    try:
        p = x**exponent
    except OverflowError:
        return math.exp(log_value)
    return fact_n / p
