"""Command-line front end.

Verbs:
  eval           engine value and error estimate for psi_n at one point
  verify-cm      grid scan of the complete-monotonicity sign pattern
  verify-bounds  two-sided bound check over a grid above x = 1
  table          verify-bounds' rows and exit code, as csv or as a json list
  constants      endpoint constants at a = 1/2 against four closed forms, rounded once

Each verify verb's exit code is the library's verdict: CMScanReport.passed,
or every BoundCheck.passed.

Exit codes: 0 success, 1 verification failure, 2 usage error (a grid of
more --points than memory holds is one: MemoryError), 3 numerical error,
printed with the library's message: a result left the binary64 range
("polycm: numerical error: psi_40(1e-07) left the binary64 range"), the
endpoint constant's two routes disagreed (ArithmeticError), or a
quadrature ran out of subdivisions (QuadratureError).  As a process (the
`polycm` script or `python -m polycm.cli`, both through console), 141 when
the reader of stdout has gone, as in `polycm table ... | head -1`: 128 +
SIGPIPE, what a shell reports for a process that SIGPIPE killed, and no
traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from operator import attrgetter

from .bounds import bound_table, endpoint_constants
from .cm import GridSpec, ShiftParams, cm_scan
from .oracle import QuadratureError
from .polygamma import polygamma

_CSV_COLUMNS = ("x", "lower", "middle", "upper", "lower_margin", "upper_margin", "passed")

#: (k, closed form of C(1/2, k), its value rounded once to binary64).  Each
#: row's tolerance is C's own error bar plus half an ulp of the literal, as
#: |engine - literal| <= |engine - C| + |C - literal|.
_REFERENCE_CONSTANTS = (
    (0, "3/2 - 2 ln 2", 0.11370563888010939),
    (1, "pi^2/3 - 9/2", -1.2101318663035472),
    (2, "15 - 12 zeta(3)", 0.5753171620848686),
    (3, "14 pi^4/15 - 99", -8.084848368264392),
)


def _grid_verb(sub, verb, summary, run, lo, hi, points, formats, *, max_order=False):
    """A verb over (a, k) on a grid, handled by run: --a --k --lo --hi --points
    --format, with this verb's grid defaults and formats (the first is the default)."""
    p = sub.add_parser(verb, help=summary, description=summary)
    p.set_defaults(run=run)
    p.add_argument("--a", type=float, required=True, help="shift in (0, 1)")
    p.add_argument("--k", type=int, required=True, help="base derivative order")
    if max_order:
        p.add_argument("--max-order", type=int, default=8)
    p.add_argument("--lo", type=float, default=lo)
    p.add_argument("--hi", type=float, default=hi)
    p.add_argument("--points", type=int, default=points)
    p.add_argument("--format", choices=formats, default=formats[0])


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
    p_eval.set_defaults(run=_cmd_eval)

    _grid_verb(sub, "verify-cm", "scan the sign pattern of the gap derivatives; "
               "exit 1 unless the scan passes", _cmd_verify_cm,
               0.1, 100.0, 60, ("text", "json"), max_order=True)
    _grid_verb(sub, "verify-bounds", "check the two-sided bounds on a grid; "
               "exit 1 if a row fails", _cmd_verify_bounds,
               1.001, 1000.0, 50, ("text", "json", "csv"))
    # the verify-bounds handler; its json is the bare list of rows
    _grid_verb(sub, "table", "emit the bound rows of verify-bounds, with its exit code",
               _cmd_verify_bounds, 1.001, 1000.0, 50, ("csv", "json"))

    p_const = sub.add_parser("constants", help="reference endpoint constants at a = 1/2")
    p_const.add_argument("--format", choices=("text", "json"), default="text")
    p_const.set_defaults(run=_cmd_constants)

    return parser


def _g(v: float) -> str:
    return f"{v:.17g}"


def _emit_rows_csv(rows, out) -> None:
    # imported here, the one place that writes csv, so no other verb loads it
    import csv

    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    fields = attrgetter(*_CSV_COLUMNS)
    for r in rows:
        *values, passed = fields(r)
        writer.writerow([*map(_g, values), "true" if passed else "false"])


def _cmd_eval(args) -> int:
    r = polygamma(args.n, args.x)
    if args.format == "json":
        print(json.dumps({"n": args.n, "x": args.x, "value": r.value,
                          "abs_error_estimate": r.abs_error_estimate}))
    else:
        print(f"psi_{args.n}({_g(args.x)}) = {_g(r.value)}")
        print(f"abs error estimate <= {r.abs_error_estimate:.3e}")
    return 0


def _shift_grid(args) -> tuple[ShiftParams, GridSpec]:
    return (ShiftParams(a=args.a, k=args.k),
            GridSpec(lo=args.lo, hi=args.hi, points=args.points))


def _cmd_verify_cm(args) -> int:
    params, grid = _shift_grid(args)
    report = cm_scan(params, args.max_order, grid)
    if args.format == "json":
        d = asdict(report)
        if not math.isfinite(report.witness_error):
            # with no witness both are inf, which JSON cannot hold
            d["witness_error"] = d["min_signed_value"] = None
        d["ok"] = report.passed
        print(json.dumps(d))
    else:
        print(
            f"scan a={_g(params.a)} k={params.k} orders 0..{report.derivative_orders[-1]} "
            f"on {grid.points} logarithmic points in [{_g(grid.lo)}, {_g(grid.hi)}]"
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
        print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def _cmd_verify_bounds(args) -> int:
    """verify-bounds, and table: the same rows and verdict."""
    params, grid = _shift_grid(args)
    rows = bound_table(params, grid)
    worst = min(min(r.lower_margin, r.upper_margin) for r in rows)
    ok = all(r.passed for r in rows)
    if args.format == "csv":
        _emit_rows_csv(rows, sys.stdout)
    elif args.format == "json":
        payload = [asdict(r) for r in rows]
        if args.verb != "table":
            payload = {"a": params.a, "k": params.k, "rows": payload,
                       "worst_margin": worst, "ok": ok}
        print(json.dumps(payload))
    else:
        print(
            f"bounds a={_g(params.a)} k={params.k} on {grid.points} points "
            f"in [{_g(grid.lo)}, {_g(grid.hi)}]: worst margin {worst:.6e}"
        )
        print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_constants(args) -> int:
    ok = True
    entries = []
    for k, label, target in _REFERENCE_CONSTANTS:
        c = endpoint_constants(ShiftParams(a=0.5, k=k))
        engine = c.value
        tol = c.abs_error_estimate + 0.5 * math.ulp(target)
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


def main(cli_args=None) -> int:
    parser = build_parser()
    args = parser.parse_args(cli_args)
    try:
        return args.run(args)
    except ValueError as exc:
        print(f"polycm: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # a grid of more --points than memory holds: the size is the
        # user's input, so a usage error, not a verdict (exit 1)
        print(f"polycm: error: out of memory: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"polycm: numerical error: {exc}", file=sys.stderr)
        return 3
    except QuadratureError as exc:
        print(f"polycm: numerical error: quadrature failed: {exc}", file=sys.stderr)
        return 3


def console() -> None:
    """The process entry: the `polycm` script and `python -m polycm.cli`.

    Runs main on sys.argv and exits with its code, argparse's own exits
    (--help, usage errors) included.  A closed stdout pipe exits 141, the
    status a shell reports for a process that SIGPIPE killed, with stdout
    pointed at os.devnull so that the interpreter's final flush cannot
    raise again.

    It freezes the heap (gc.freeze) just before it exits: the shutdown
    collections, which run whether or not the collector is enabled, then
    skip the ~21,400 objects that `import polycm.cli` leaves tracked,
    nearly all numpy's.  That cut finalization, timed from the last atexit
    handler, from about 20 ms to about 5 ms of each process.  atexit
    handlers, the final flush and module teardown still run, as os._exit
    would not let them.  main does not freeze: it is the in-process API,
    and its caller's heap is not its own to freeze.
    """
    import gc
    import os

    try:
        try:
            code = main()
        except SystemExit as exc:
            code = exc.code
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    console()
