"""Command-line front end.

Verbs:
  eval           engine value and error estimate for psi_n at one point
  verify-cm      grid scan of the complete-monotonicity sign pattern
  verify-bounds  two-sided bound check over a grid above x = 1
  table          the same bound rows, emitted as csv or json
  constants      the four reference endpoint constants against closed forms

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 numerical
error (a result left the binary64 range).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict

from .bounds import bound_table, endpoint_constants
from .cm import CMScanReport, GridSpec, ShiftParams, cm_scan
from .constants import LN2, PI, zeta_int
from .polygamma import polygamma

_CSV_COLUMNS = ("x", "lower", "middle", "upper", "lower_margin", "upper_margin", "passed")

#: (k, human-readable closed form, callable producing it, tolerance) for a = 1/2.
_REFERENCE_CONSTANTS = (
    (0, "3/2 - 2 ln 2", lambda: 1.5 - 2.0 * LN2, 1e-12),
    (1, "pi^2/3 - 9/2", lambda: PI * PI / 3.0 - 4.5, 1e-11),
    (2, "15 - 12 zeta(3)", lambda: 15.0 - 12.0 * zeta_int(3), 1e-11),
    (3, "14 pi^4/15 - 99", lambda: 14.0 * PI**4 / 15.0 - 99.0, 1e-10),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polycm",
        description="Polygamma evaluation and inequality verification.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_eval = sub.add_parser("eval", help="evaluate psi_n(x)")
    p_eval.add_argument("--n", type=int, default=0, help="derivative order (default 0)")
    p_eval.add_argument("--x", type=float, required=True, help="argument, x > 0")
    p_eval.add_argument("--format", choices=("text", "json"), default="text")

    p_cm = sub.add_parser("verify-cm", help="scan the sign pattern of the gap derivatives")
    p_cm.add_argument("--a", type=float, required=True, help="shift in (0, 1)")
    p_cm.add_argument("--k", type=int, required=True, help="base derivative order")
    p_cm.add_argument("--max-order", type=int, default=8)
    p_cm.add_argument("--lo", type=float, default=0.1)
    p_cm.add_argument("--hi", type=float, default=100.0)
    p_cm.add_argument("--points", type=int, default=60)
    p_cm.add_argument("--tol", type=float, default=0.0, help="extra floor the minimum must clear")
    p_cm.add_argument("--format", choices=("text", "json"), default="text")

    p_vb = sub.add_parser("verify-bounds", help="check the two-sided bounds on a grid")
    p_vb.add_argument("--a", type=float, required=True)
    p_vb.add_argument("--k", type=int, required=True)
    p_vb.add_argument("--lo", type=float, default=1.001)
    p_vb.add_argument("--hi", type=float, default=1000.0)
    p_vb.add_argument("--points", type=int, default=50)
    p_vb.add_argument("--tol", type=float, default=0.0, help="margin floor, absolute")
    p_vb.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p_tab = sub.add_parser("table", help="emit the bound rows")
    p_tab.add_argument("--a", type=float, required=True)
    p_tab.add_argument("--k", type=int, required=True)
    p_tab.add_argument("--lo", type=float, default=1.001)
    p_tab.add_argument("--hi", type=float, default=1000.0)
    p_tab.add_argument("--points", type=int, default=50)
    p_tab.add_argument("--format", choices=("csv", "json"), default="csv")

    p_const = sub.add_parser("constants", help="reference endpoint constants at a = 1/2")
    p_const.add_argument("--tol", type=float, default=None, help="override the per-k tolerances")
    p_const.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _check_tol(tol: float, nonnegative: bool = False) -> float:
    """--tol as given; nan, or a negative tol where none makes sense, is a
    usage error (ValueError)."""
    if math.isnan(tol):
        raise ValueError("--tol must be a number, got nan")
    if nonnegative and tol < 0.0:
        raise ValueError(f"--tol must be >= 0, got {tol!r}")
    return tol


def _g(v: float) -> str:
    return f"{v:.17g}"


def _emit_rows_csv(rows, out) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for r in rows:
        writer.writerow(
            [
                _g(r.x),
                _g(r.lower),
                _g(r.middle),
                _g(r.upper),
                _g(r.lower_margin),
                _g(r.upper_margin),
                "true" if r.passed else "false",
            ]
        )


def _report_dict(report: CMScanReport) -> dict:
    d = asdict(report)
    d["params"] = {"a": report.params.a, "k": report.params.k}
    d["grid"] = asdict(report.grid)
    if report.witness_point is not None:
        d["witness_point"] = [report.witness_point[0], report.witness_point[1]]
    if not math.isfinite(report.witness_error):
        d["witness_error"] = None
        d["min_signed_value"] = None
    return d


def _cmd_eval(args) -> int:
    r = polygamma(args.n, args.x)
    if args.format == "json":
        print(json.dumps({"n": args.n, "x": args.x, "value": r.value,
                          "abs_error_estimate": r.abs_error_estimate}))
    else:
        print(f"psi_{args.n}({_g(args.x)}) = {_g(r.value)}")
        print(f"abs error estimate <= {r.abs_error_estimate:.3e}")
    return 0


def _cmd_verify_cm(args) -> int:
    params = ShiftParams(a=args.a, k=args.k)
    grid = GridSpec(lo=args.lo, hi=args.hi, points=args.points)
    tol = _check_tol(args.tol)
    report = cm_scan(params, args.max_order, grid)
    ok = report.passed and (report.witness_point is None or report.min_signed_value > tol)
    if args.format == "json":
        d = _report_dict(report)
        d["tol"] = tol
        d["ok"] = ok
        print(json.dumps(d))
    else:
        print(
            f"scan a={_g(params.a)} k={params.k} orders 0..{report.derivative_orders[-1]} "
            f"on {grid.points} {grid.spacing} points in [{_g(grid.lo)}, {_g(grid.hi)}]"
        )
        if report.witness_point is None:
            print("no determinate points; nothing to certify")
        else:
            n, x = report.witness_point
            print(
                f"min signed value {report.min_signed_value:.6e} at n={n}, x={_g(x)} "
                f"(error bar {report.witness_error:.3e}); "
                f"{report.indeterminate_count} indeterminate points"
            )
        print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_verify_bounds(args) -> int:
    params = ShiftParams(a=args.a, k=args.k)
    grid = GridSpec(lo=args.lo, hi=args.hi, points=args.points)
    tol = _check_tol(args.tol)
    rows = bound_table(params, grid)
    worst = min(min(r.lower_margin, r.upper_margin) for r in rows)
    ok = all(r.passed for r in rows) and worst > tol
    if args.format == "csv":
        _emit_rows_csv(rows, sys.stdout)
    elif args.format == "json":
        print(json.dumps({"a": params.a, "k": params.k, "rows": [asdict(r) for r in rows],
                          "worst_margin": worst, "tol": tol, "ok": ok}))
    else:
        print(
            f"bounds a={_g(params.a)} k={params.k} on {grid.points} points "
            f"in [{_g(grid.lo)}, {_g(grid.hi)}]: worst margin {worst:.6e}"
        )
        print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_table(args) -> int:
    params = ShiftParams(a=args.a, k=args.k)
    grid = GridSpec(lo=args.lo, hi=args.hi, points=args.points)
    rows = bound_table(params, grid)
    if args.format == "json":
        print(json.dumps([asdict(r) for r in rows]))
    else:
        _emit_rows_csv(rows, sys.stdout)
    return 0 if all(r.passed for r in rows) else 1


def _cmd_constants(args) -> int:
    override = None if args.tol is None else _check_tol(args.tol, nonnegative=True)
    ok = True
    entries = []
    for k, label, closed, tol in _REFERENCE_CONSTANTS:
        if override is not None:
            tol = override
        engine = endpoint_constants(ShiftParams(a=0.5, k=k))
        target = closed()
        good = abs(engine - target) <= tol
        ok = ok and good
        entries.append(
            {"k": k, "closed_form": label, "closed_value": target,
             "engine_value": engine, "abs_diff": abs(engine - target),
             "tol": tol, "ok": good}
        )
    if args.format == "json":
        print(json.dumps({"a": 0.5, "entries": entries, "ok": ok}))
    else:
        for e in entries:
            flag = "ok" if e["ok"] else "MISMATCH"
            print(
                f"k={e['k']}: {e['closed_form']:<16} = {_g(e['closed_value'])}  "
                f"engine {_g(e['engine_value'])}  |diff| {e['abs_diff']:.2e}  {flag}"
            )
        print("PASS" if ok else "FAIL")
    return 0 if ok else 1


_DISPATCH = {
    "eval": _cmd_eval,
    "verify-cm": _cmd_verify_cm,
    "verify-bounds": _cmd_verify_bounds,
    "table": _cmd_table,
    "constants": _cmd_constants,
}


def main(cli_args=None) -> int:
    parser = build_parser()
    args = parser.parse_args(cli_args)
    try:
        return _DISPATCH[args.verb](args)
    except ValueError as exc:
        print(f"polycm: error: {exc}", file=sys.stderr)
        return 2
    except OverflowError:
        print("polycm: numerical error: a result left the binary64 range", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
