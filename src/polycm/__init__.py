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

The engine is pure Python, and `import polycm` loads only it and the
constants: the names of the numpy modules (cm, bounds and oracle) are
imported on first access (PEP 562), so the scalar path never loads numpy.
EvalResult is a plain immutable class, so it loads neither dataclasses nor
inspect.
"""

from .polygamma import (
    MAX_ORDER,
    EvalResult,
    factorial_over_power,
    polygamma,
)

#: Home module of each public name that needs numpy.
_LAZY = {
    "BoundCheck": "bounds",
    "bound_table": "bounds",
    "endpoint_constants": "bounds",
    "CMScanReport": "cm",
    "GridSpec": "cm",
    "ShiftParams": "cm",
    "cm_scan": "cm",
    "exp_diff_ratio": "cm",
    "increasing_condition": "cm",
    "shift_gap_derivative": "cm",
    "QuadratureError": "oracle",
    "SeriesSpec": "oracle",
    "cm_weight": "oracle",
    "digamma_series": "oracle",
    "gap_integral_even": "oracle",
    "gap_integral_odd": "oracle",
    "polygamma_integral": "oracle",
    "polygamma_series": "oracle",
}


def __getattr__(name: str):
    """Import a numpy module's public name on first access and cache it here."""
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"

__all__ = [
    "BoundCheck",
    "CMScanReport",
    "EvalResult",
    "GridSpec",
    "MAX_ORDER",
    "QuadratureError",
    "SeriesSpec",
    "ShiftParams",
    "bound_table",
    "cm_scan",
    "cm_weight",
    "digamma_series",
    "endpoint_constants",
    "exp_diff_ratio",
    "factorial_over_power",
    "gap_integral_even",
    "gap_integral_odd",
    "increasing_condition",
    "polygamma",
    "polygamma_integral",
    "polygamma_series",
    "shift_gap_derivative",
]
