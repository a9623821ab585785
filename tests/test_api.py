"""The public API: polycm.__all__ is pinned name by name."""

from __future__ import annotations

import types

import polycm

PUBLIC = [
    "BoundCheck",
    "CMScanReport",
    "EvalResult",
    "GridSpec",
    "MAX_ORDER",
    "QuadratureError",
    "QuadratureSpec",
    "RatioParams",
    "SeriesSpec",
    "ShiftParams",
    "bound_check",
    "bound_table",
    "cm_scan",
    "cm_weight",
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
    "zeta_int",
]


def test_all_is_pinned():
    assert len(PUBLIC) == 28
    assert polycm.__all__ == PUBLIC


def test_package_exports_exactly_all():
    # no name outside __all__ is re-exported, the subpackage modules aside
    exported = {
        name for name, value in vars(polycm).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == set(PUBLIC)
