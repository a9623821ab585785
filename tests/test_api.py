"""The public API: polycm.__all__ is pinned name by name and matches the
README's list, and the package loads numpy only when a name that needs it
is first used."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import polycm

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC = [
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


#: The module each public name is defined in.
HOMES = {
    **dict.fromkeys(["MAX_ORDER", "EvalResult", "factorial_over_power", "polygamma"],
                    "polycm.polygamma"),
    **dict.fromkeys(["BoundCheck", "bound_table", "endpoint_constants"],
                    "polycm.bounds"),
    **dict.fromkeys(["CMScanReport", "GridSpec", "ShiftParams", "cm_scan", "exp_diff_ratio",
                     "increasing_condition", "shift_gap_derivative"], "polycm.cm"),
    **dict.fromkeys(["QuadratureError", "SeriesSpec", "cm_weight", "digamma_series",
                     "gap_integral_even", "gap_integral_odd", "polygamma_integral",
                     "polygamma_series"],
                    "polycm.oracle"),
}


def test_all_is_pinned():
    assert len(PUBLIC) == 22
    assert polycm.__all__ == PUBLIC


def test_readme_lists_all():
    # README's "Public names" list holds one `name` per line, in the
    # order of __all__
    section = README.read_text().split("\n### Public names\n", 1)[1].split("\n#", 1)[0]
    assert re.findall(r"^- `(\w+)` - ", section, flags=re.M) == polycm.__all__


def test_package_exports_exactly_all():
    # once every public name is resolved, no name outside __all__ is
    # exported, the subpackage modules aside, and dir() lists the same set
    for name in PUBLIC:
        getattr(polycm, name)

    def public(names):
        return {
            name for name in names
            if not name.startswith("_") and not isinstance(getattr(polycm, name), types.ModuleType)
        }

    assert public(vars(polycm)) == set(PUBLIC)
    assert public(dir(polycm)) == set(PUBLIC)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        polycm.no_such_name


def fresh(code: str):
    """Run code in a new interpreter that imports this polycm; the JSON it
    prints last."""
    src = str(Path(polycm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_scalar_engine_loads_no_numpy():
    # the calls read polygamma's per-order table on both of its paths
    # (orders 0, 3 and 40), its n! in the head's half term at (28, 35.999),
    # where the rounded (n-1)! n would give another bit, and
    # factorial_over_power on both of its branches: the plain one at
    # (3, 2.0) and the log-space one at (40, 1e8), where x^41 overflows.
    # (0, 1e3) and (5, 123.0) sit at or above their thresholds, so both
    # kinds of order also run the branch that takes no shift step.
    # Unblocked, none of numpy, dataclasses or inspect is loaded after
    # them; blocked, a stray import of one raises, and a guarded one would
    # have to give the same bits
    engine = [(3, 0.5), (0, 0.5), (40, 2.0), (28, 35.999), (0, 1e3), (5, 123.0)]
    fop = [(3, 2.0), (40, 1e8)]
    banned = ["numpy", "dataclasses", "inspect"]
    calls = (
        "import polycm\n"
        f"results = [polycm.polygamma(n, x) for n, x in {engine}]\n"
        "outcome = [[[r.value, r.abs_error_estimate] for r in results],\n"
        f"           [polycm.factorial_over_power(n, x) for n, x in {fop}]]\n"
    )
    loaded = fresh(
        "import json, sys\n"
        + calls
        + f"print(json.dumps([name for name in {banned} if name in sys.modules]))"
    )
    assert loaded == []
    blocked = fresh(
        "import json, sys\n"
        f"sys.modules.update(dict.fromkeys({banned}))\n"
        + calls
        + "print(json.dumps(outcome))"
    )
    results = [polycm.polygamma(n, x) for n, x in engine]
    assert blocked == [[[r.value, r.abs_error_estimate] for r in results],
                       [polycm.factorial_over_power(n, x) for n, x in fop]]


def test_import_adds_only_the_engine_and_its_constants():
    # no dataclasses, inspect or __future__ (and the 13 modules those bring
    # in); a build that does not preload math or operator may load them here
    added = fresh(
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import polycm\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    assert set(added) - {"math", "operator", "_operator"} == {
        "polycm", "polycm.constants", "polycm.polygamma"
    }


def test_cli_loads_no_numpy_polynomial_and_csv_on_demand():
    # the quadrature rules are literals and csv is imported by the csv
    # writer, so polycm imports neither until a verb needs it; with
    # numpy.polynomial blocked, the integrating verb and the csv format run.
    # numpy 1.x imports numpy.polynomial itself from its __init__, so it may
    # only be loaded where plain `import numpy` already loads it
    command = "$ polycm verify-bounds --a 0.5 --k 1 --points 8 --format csv | head -3\n"
    shown = README.read_text().split(command, 1)[1].splitlines()[:3]
    by_numpy, loaded, codes, csv_head = fresh(
        "import contextlib, io, json, sys\n"
        "import numpy\n"
        "by_numpy = 'numpy.polynomial' in sys.modules\n"
        "import polycm.cli\n"
        "loaded = [name in sys.modules for name in ('numpy.polynomial', 'csv')]\n"
        "sys.modules['numpy.polynomial'] = None\n"
        "codes, outs = [], []\n"
        "for argv in (['constants'],\n"
        "             ['verify-bounds', '--a', '0.5', '--k', '1', '--points', '8', '--format', 'csv']):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        codes.append(polycm.cli.main(argv))\n"
        "    outs.append(out.getvalue())\n"
        "print(json.dumps([by_numpy, loaded, codes, outs[1].splitlines()[:3]]))"
    )
    assert loaded == [by_numpy, False]
    assert codes == [0, 0]
    assert csv_head == shown


@pytest.mark.parametrize("first", [
    "import polycm.polygamma",
    "import polycm.cm",
    "from polycm import cm_scan",
    "import polycm.cli",
])
def test_polygamma_is_the_function_in_any_import_order(first):
    # the package binds the function polycm.polygamma over the submodule of
    # the same name, which stays reachable through sys.modules
    assert fresh(
        f"{first}\n"
        "import json, sys, types, polycm\n"
        "module = sys.modules['polycm.polygamma']\n"
        "print(json.dumps([isinstance(module, types.ModuleType),\n"
        "                  polycm.polygamma is module.polygamma,\n"
        "                  callable(polycm.polygamma)]))"
    ) == [True, True, True]


def test_every_name_is_its_home_modules_object():
    assert fresh(
        "import importlib, json, polycm\n"
        "homes = {}\n"
        "for name in polycm.__all__:\n"
        "    value = getattr(polycm, name)\n"
        "    home = 'polycm.polygamma' if name == 'MAX_ORDER' else value.__module__\n"
        "    homes[name] = [home, getattr(importlib.import_module(home), name) is value]\n"
        "print(json.dumps(homes))"
    ) == {name: [HOMES[name], True] for name in PUBLIC}


def test_star_import_binds_exactly_all():
    assert fresh(
        "import json\n"
        "before = set(globals())\n"
        "from polycm import *\n"
        "print(json.dumps(sorted(set(globals()) - before - {'before'})))"
    ) == sorted(PUBLIC)


def test_engine_results_take_no_more_memory_than_constructed_ones():
    # the engine builds its results without the constructor.  Filling
    # result.__dict__ there would be faster, but on CPython 3.11 it
    # materialises a dict per result, and can unshare the class's key table
    # so that constructed results grow as well; a fresh interpreter sees both
    before, engine, after = fresh(
        "import json, tracemalloc\n"
        "from polycm.polygamma import EvalResult, _result\n"
        "values = [float(i) for i in range(2000)]\n"
        "def bytes_per_result(build):\n"
        "    tracemalloc.start()\n"
        "    kept = [build(v, 1.0) for v in values]\n"
        "    size = tracemalloc.get_traced_memory()[0]\n"
        "    tracemalloc.stop()\n"
        "    return size / len(kept)\n"
        "print(json.dumps([bytes_per_result(EvalResult), bytes_per_result(_result),\n"
        "                  bytes_per_result(EvalResult)]))"
    )
    assert engine <= before + 8.0 and after <= before + 8.0, (before, engine, after)
