"""Polygamma evaluation and verification of its shifted-difference inequalities.

The package has three layers:

  * an engine (polygamma) built on argument shifting plus the Bernoulli
    asymptotic series, returning every value with an error estimate;
  * independent oracles (oracle) that recompute the same quantities from
    series and integral definitions with their own sound error bounds;
  * verification passes (cm, bounds) that certify the strict sign pattern
    of the gap psi_k(x+a) - psi_k(x) - a k!/x^(k+1) and the two-sided
    bounds it implies for x > 1, over explicit grids.

polycm.cli wires the same passes to the `polycm` console command.
"""

from .bounds import (
    BoundCheck,
    bound_check,
    bound_table,
    endpoint_constants,
)
from .cm import (
    CMScanReport,
    GridSpec,
    RatioParams,
    ShiftParams,
    cm_scan,
    exp_diff_ratio,
    expm1_ratio,
    increasing_condition,
    shift_gap_derivative,
)
from .constants import (
    GAMMA_EULER,
    LN2,
    PI,
    bernoulli_even,
    zeta_int,
)
from .oracle import (
    QuadratureError,
    QuadratureSpec,
    SeriesSpec,
    cm_weight,
    digamma_series,
    gap_integral_even,
    gap_integral_odd,
    polygamma_integral,
    polygamma_series,
    power_integral,
)
from .polygamma import (
    MAX_ORDER,
    EvalResult,
    digamma,
    factorial_over_power,
    polygamma,
    shift_threshold,
)

__version__ = "0.1.0"

__all__ = [
    "BoundCheck",
    "CMScanReport",
    "EvalResult",
    "GAMMA_EULER",
    "GridSpec",
    "LN2",
    "MAX_ORDER",
    "PI",
    "QuadratureError",
    "QuadratureSpec",
    "RatioParams",
    "SeriesSpec",
    "ShiftParams",
    "bernoulli_even",
    "bound_check",
    "bound_table",
    "cm_scan",
    "cm_weight",
    "digamma",
    "digamma_series",
    "endpoint_constants",
    "exp_diff_ratio",
    "expm1_ratio",
    "factorial_over_power",
    "gap_integral_even",
    "gap_integral_odd",
    "increasing_condition",
    "polygamma",
    "polygamma_integral",
    "polygamma_series",
    "power_integral",
    "shift_gap_derivative",
    "shift_threshold",
    "zeta_int",
]
