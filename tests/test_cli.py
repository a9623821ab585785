"""CLI: verbs, formats, exit codes, and the csv round trip."""

from __future__ import annotations

import csv
import gc
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import polycm.bounds
import polycm.cli
import polycm.oracle
from polycm import (EvalResult, GridSpec, QuadratureError, ShiftParams, bound_table, cm_scan,
                    endpoint_constants, polygamma)
from polycm.cli import main

CSV_COLUMNS = ["x", "lower", "middle", "upper", "lower_margin", "upper_margin", "passed"]
WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"
# the directory that holds the package under test, for child interpreters
SRC = str(Path(polycm.cli.__file__).resolve().parent.parent)


def run(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


class TestEval:
    def test_text(self, capsys):
        code, out, err = run(["eval", "--n", "2", "--x", "1.5"], capsys)
        assert code == 0
        assert "psi_2(1.5)" in out
        assert err == ""

    def test_json_matches_library(self, capsys):
        code, out, _ = run(["eval", "--n", "1", "--x", "2.25", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        r = polygamma(1, 2.25)
        assert payload["value"] == r.value
        assert payload["abs_error_estimate"] == r.abs_error_estimate

    def test_default_order_is_digamma(self, capsys):
        code, out, _ = run(["eval", "--x", "1.0", "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["n"] == 0

    def test_bad_argument_is_usage_error(self, capsys):
        code, _, err = run(["eval", "--n", "1", "--x", "-3.0"], capsys)
        assert code == 2
        assert "error" in err

    def test_overflow_is_a_numerical_error(self, capsys):
        with pytest.raises(OverflowError) as exc:
            polygamma(40, 1e-8)
        code, out, err = run(["eval", "--n", "40", "--x", "1e-8"], capsys)
        assert code == 3
        assert out == ""
        assert err == f"polycm: numerical error: {exc.value}\n"
        assert err == "polycm: numerical error: psi_40(1e-08) left the binary64 range\n"

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--n", "1"])
        assert exc.value.code == 2


@pytest.mark.parametrize("verb", ["verify-cm", "verify-bounds", "table"])
def test_unallocatable_grid_is_usage_error(capsys, verb):
    # 10**15 points need 8 PB, more than a 64-bit process can map, so the
    # grid's first array is refused before any of it is allocated
    code, out, err = run([verb, "--a", "0.5", "--k", "2", "--points", str(10**15)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("polycm: error: out of memory: ")
    assert err.count("\n") == 1


def library_overflow(argv) -> OverflowError:
    """The OverflowError that the library call behind argv's verb raises."""
    args = polycm.cli.build_parser().parse_args(argv)
    with pytest.raises(OverflowError) as exc:
        if args.verb == "eval":
            polygamma(args.n, args.x)
        else:
            params = ShiftParams(a=args.a, k=args.k)
            grid = GridSpec(lo=args.lo, hi=args.hi, points=args.points)
            if args.verb == "verify-cm":
                cm_scan(params, args.max_order, grid)
            else:
                bound_table(params, grid)
    return exc.value


class TestNumericalErrors:
    @pytest.mark.parametrize(
        "argv,line",
        [
            (["eval", "--n", "40", "--x", "1e-7"],
             "polycm: numerical error: psi_40(1e-07) left the binary64 range"),
            (["eval", "--n", "0", "--x", "1e-310"],
             "polycm: numerical error: psi_0(1e-310) left the binary64 range"),
            (["verify-cm", "--a", "0.5", "--k", "32", "--lo", "1e-7", "--hi", "1",
              "--points", "10"],
             "polycm: numerical error: psi_37(1e-07) left the binary64 range"),
            (["verify-bounds", "--a", "0.5", "--k", "2", "--lo", "1.5",
              "--hi", "1.7976931348623157e308", "--points", "5"],
             "polycm: numerical error: psi_2(1.642114399880073e+154) left the binary64 range"),
        ],
        ids=[f"argv{i}" for i in range(4)],
    )
    def test_non_finite_result(self, capsys, argv, line):
        # the result itself leaves binary64 (psi_40(1e-7) is about 8e334,
        # psi(1e-310) about -1e310): a numerical error, not a usage error,
        # printed with the library's message.  A grid ending at DBL_MAX is
        # built without a warning; its first row to overflow is an interior
        # one, where the power x^3 in psi_2's asymptotic head leaves binary64
        code, out, err = run(argv, capsys)
        assert code == 3
        assert out == ""
        assert err == line + "\n"
        assert line == f"polycm: numerical error: {library_overflow(argv)}"

    def test_disagreeing_endpoint_routes(self, capsys, monkeypatch):
        # a direct route far from the quadrature's value: endpoint_constants
        # raises ArithmeticError, which is no verification FAIL (exit 1)
        monkeypatch.setattr(polycm.bounds, "shift_gap_derivative",
                            lambda p, n, x: EvalResult(1.0, 1e-16))
        code, out, err = run(["constants"], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("polycm: numerical error: endpoint constant routes disagree: 1.0 vs ")

    def test_quadrature_failure(self, capsys, monkeypatch):
        def exhausted(a, k, x):
            raise QuadratureError("needed more than 200 subdivisions for rel_tol=1e-13")

        monkeypatch.setattr(polycm.oracle, "gap_integral_even", exhausted)
        code, out, err = run(["constants"], capsys)
        assert code == 3
        assert out == ""
        assert err == ("polycm: numerical error: quadrature failed: "
                       "needed more than 200 subdivisions for rel_tol=1e-13\n")


class TestVerifyCM:
    def test_pass(self, capsys):
        code, out, _ = run(
            ["verify-cm", "--a", "0.5", "--k", "2", "--max-order", "3",
             "--lo", "0.5", "--hi", "20", "--points", "12"],
            capsys,
        )
        assert code == 0
        assert out.strip().endswith("PASS")

    def test_json_payload(self, capsys):
        code, out, _ = run(
            ["verify-cm", "--a", "0.3", "--k", "1", "--max-order", "2",
             "--lo", "0.5", "--hi", "20", "--points", "8", "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["params"] == {"a": 0.3, "k": 1}
        assert payload["min_signed_value"] > 0.0
        assert len(payload["witness_point"]) == 2

    # far out the gap cancels below every sample's bar, so no point is
    # determinate and the scan has no witness
    FAR = ["verify-cm", "--a", "0.5", "--k", "2", "--lo", "1e12", "--hi", "1e13", "--points", "5"]

    def test_no_determinate_points_fails(self, capsys):
        args = polycm.cli.build_parser().parse_args(self.FAR)
        report = cm_scan(ShiftParams(a=args.a, k=args.k), args.max_order,
                         GridSpec(lo=args.lo, hi=args.hi, points=args.points))
        assert report.passed is False
        code, out, _ = run(self.FAR, capsys)
        assert code == 1
        assert out.splitlines()[1:] == ["no determinate points; nothing to certify", "FAIL"]

    def test_no_determinate_points_json_has_no_witness(self, capsys):
        code, out, _ = run(self.FAR + ["--format", "json"], capsys)
        assert code == 1
        payload = json.loads(out)
        assert payload["ok"] is False
        assert payload["indeterminate_count"] == 45
        for field in ("min_signed_value", "witness_error", "witness_point"):
            assert payload[field] is None, field

    def test_invalid_shift_is_usage_error(self, capsys):
        code, _, err = run(["verify-cm", "--a", "1.5", "--k", "2"], capsys)
        assert code == 2
        assert "polycm: error" in err


class TestVerifyBounds:
    def test_pass_text(self, capsys):
        code, out, _ = run(
            ["verify-bounds", "--a", "0.5", "--k", "2",
             "--lo", "1.5", "--hi", "50", "--points", "10"],
            capsys,
        )
        assert code == 0
        assert out.strip().endswith("PASS")

    def test_csv_format(self, capsys):
        code, out, _ = run(
            ["verify-bounds", "--a", "0.5", "--k", "1",
             "--lo", "1.5", "--hi", "50", "--points", "6", "--format", "csv"],
            capsys,
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == CSV_COLUMNS
        assert len(rows) == 7

    def test_infinite_bound_is_usage_error(self, capsys):
        code, out, err = run(["verify-bounds", "--a", "0.5", "--k", "1", "--hi", "inf"], capsys)
        assert code == 2
        assert out == ""
        assert err == "polycm: error: hi must be finite, got inf\n"


@pytest.mark.parametrize(
    "argv,passed",
    [
        (["verify-cm", "--a", "0.5", "--k", "2", "--max-order", "3",
          "--lo", "0.5", "--hi", "20", "--points", "12"], True),
        (["verify-bounds", "--a", "0.5", "--k", "2", "--lo", "1.5", "--hi", "50", "--points", "10"],
         True),
        # two far rows' lower margins, the cancelling gap itself, fall below
        # zero: worst margin -5.57e-33
        (["verify-bounds", "--a", "0.5", "--k", "2", "--hi", "1e9"], False),
    ],
    ids=["verify-cm-pass", "verify-bounds-pass", "verify-bounds-fail"],
)
def test_exit_code_is_the_library_verdict(capsys, argv, passed):
    # the verb adds no rule of its own: it exits 0 exactly when the
    # library's report passes, or every one of its rows does; verify-cm's
    # failing grid is FAR, in TestVerifyCM.test_no_determinate_points_fails
    args = polycm.cli.build_parser().parse_args(argv)
    params = ShiftParams(a=args.a, k=args.k)
    grid = GridSpec(lo=args.lo, hi=args.hi, points=args.points)
    if args.verb == "verify-cm":
        verdict = cm_scan(params, args.max_order, grid).passed
    else:
        verdict = all(r.passed for r in bound_table(params, grid))
    assert verdict is passed
    code, out, _ = run(argv, capsys)
    assert code == (0 if passed else 1)
    assert out.endswith("PASS\n" if passed else "FAIL\n")


class TestTable:
    def test_csv_round_trip_is_bit_exact(self, capsys):
        args = ["--a", "0.7", "--k", "3", "--lo", "1.25", "--hi", "200", "--points", "12"]
        code, out, _ = run(["table"] + args, capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == CSV_COLUMNS
        expected = bound_table(
            ShiftParams(a=0.7, k=3), GridSpec(lo=1.25, hi=200.0, points=12)
        )
        assert len(rows) == 1 + len(expected)
        for text_row, ref in zip(rows[1:], expected):
            assert float(text_row[0]) == ref.x
            assert float(text_row[1]) == ref.lower
            assert float(text_row[2]) == ref.middle
            assert float(text_row[3]) == ref.upper
            assert float(text_row[4]) == ref.lower_margin
            assert float(text_row[5]) == ref.upper_margin
            assert text_row[6] == ("true" if ref.passed else "false")

    def test_json_rows(self, capsys):
        code, out, _ = run(
            ["table", "--a", "0.5", "--k", "0", "--lo", "2", "--hi", "10",
             "--points", "4", "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 4
        assert set(payload[0]) >= {"x", "lower", "middle", "upper", "passed"}


    @pytest.mark.parametrize(
        "grid,code",
        [
            (["--a", "0.7", "--k", "3", "--lo", "1.25", "--hi", "200", "--points", "12"], 0),
            # rows at the top of this grid fail: both verbs exit 1
            (["--a", "0.034", "--k", "0", "--hi", "1.11e7"], 1),
        ],
    )
    def test_is_verify_bounds(self, capsys, grid, code):
        table = run(["table"] + grid, capsys)
        assert table == run(["verify-bounds"] + grid + ["--format", "csv"], capsys)
        assert table[0] == code
        assert ("false" in table[1]) == (code == 1)
        rows = run(["table"] + grid + ["--format", "json"], capsys)
        report = run(["verify-bounds"] + grid + ["--format", "json"], capsys)
        assert rows[0] == report[0] == code
        assert json.loads(rows[1]) == json.loads(report[1])["rows"]


class TestConstants:
    def test_text_passes(self, capsys):
        code, out, _ = run(["constants"], capsys)
        assert code == 0
        assert out.strip().endswith("PASS")
        assert "3/2 - 2 ln 2" in out

    def test_json(self, capsys):
        code, out, _ = run(["constants", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert [e["k"] for e in payload["entries"]] == [0, 1, 2, 3]
        for e in payload["entries"]:
            assert abs(e["engine_value"] - e["closed_value"]) <= e["tol"]

    @pytest.mark.parametrize("row", range(4))
    def test_references_are_correctly_rounded_and_tol_is_the_bar_plus_half_an_ulp(
            self, row, capsys):
        # each literal is its closed form at 40 digits rounded once, bit for
        # bit; each row's tol is C's bar plus half an ulp of the literal, and
        # covers |engine - literal| because the bar covers |engine - C|
        mpmath = pytest.importorskip("mpmath")
        assert [(k, label) for k, label, _ in polycm.cli._REFERENCE_CONSTANTS] == [
            (0, "3/2 - 2 ln 2"), (1, "pi^2/3 - 9/2"),
            (2, "15 - 12 zeta(3)"), (3, "14 pi^4/15 - 99"),
        ]
        k, _, literal = polycm.cli._REFERENCE_CONSTANTS[row]
        with mpmath.workdps(40):
            exact = [
                mpmath.mpf(3) / 2 - 2 * mpmath.log(2),
                mpmath.pi**2 / 3 - mpmath.mpf(9) / 2,
                15 - 12 * mpmath.zeta(3),
                14 * mpmath.pi**4 / 15 - 99,
            ][k]
            assert literal.hex() == float(exact).hex()
            c = endpoint_constants(ShiftParams(a=0.5, k=k))
            assert abs(mpmath.mpf(c.value) - exact) <= c.abs_error_estimate
        code, out, _ = run(["constants", "--format", "json"], capsys)
        assert code == 0
        e = json.loads(out)["entries"][row]
        assert e["closed_value"] == literal and e["engine_value"] == c.value
        assert e["tol"] == c.abs_error_estimate + 0.5 * math.ulp(literal)
        assert e["abs_diff"] <= e["tol"] and e["ok"]

    def test_impossible_tol_fails(self, capsys, monkeypatch):
        # a literal 1e-12 off its closed form lies outside the row's
        # tolerance, C's bar plus half an ulp: a verification FAIL
        (k, label, literal), *rest = polycm.cli._REFERENCE_CONSTANTS
        monkeypatch.setattr(polycm.cli, "_REFERENCE_CONSTANTS",
                            ((k, label, literal + 1e-12), *rest))
        code, out, _ = run(["constants"], capsys)
        assert code == 1
        assert "MISMATCH" in out.splitlines()[0]
        assert out.endswith("FAIL\n")


class TestUsage:
    def test_unknown_verb(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_no_verb(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--x", "1"],
            ["verify-cm", "--a", "0.5", "--k", "2"],
            ["verify-bounds", "--a", "0.5", "--k", "2"],
            ["table", "--a", "0.5", "--k", "2"],
            ["constants"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_takes_no_tol(self, capsys, argv):
        # each verdict is the library's, and each constants row's tolerance
        # is fixed: C's bar plus half an ulp
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--tol", "1"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments: --tol" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-cm", "--a", "0.5", "--k", "2", "--lo", "1", "--hi", "1.0000000000000004",
             "--points", "10"],
            ["verify-bounds", "--a", "0.5", "--k", "2", "--lo", "1.5", "--hi", "1.5000000000000004",
             "--points", "10"],
        ],
    )
    def test_repeated_grid_points_are_usage_errors(self, capsys, argv):
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("polycm: error: [") and "too narrow for 10 distinct" in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["verify-cm", "--a", "0.5", "--k", "41"],
             "derivative order must be in [0, 40], got 41"),
            (["verify-cm", "--a", "0.5", "--k", "38"],
             "derivative order must be in [0, 2] on top of k = 38, got 8"),
            (["verify-bounds", "--a", "0.5", "--k", "1", "--lo", "0.5"],
             "bounds hold on x > 1 only, got x=0.5"),
            (["table", "--a", "1.5", "--k", "1"],
             "a must lie strictly in (0, 1), got 1.5"),
        ],
    )
    def test_argument_errors_name_their_rule(self, capsys, argv, message):
        assert run(argv, capsys) == (2, "", f"polycm: error: {message}\n")

    def test_ci_console_script_lines_exit_0(self):
        # the workflow's "Installed console script" step runs each bare
        # `polycm ...` line through the entry point; here each runs through
        # main, so a CLI change that would fail that step fails here first
        step = WORKFLOW.read_text().split("- name: Installed console script\n", 1)[1]
        step = re.split(r"\n\s*- name: ", step, maxsplit=1)[0]
        lines = [line.strip() for line in step.splitlines()
                 if re.fullmatch(r"\s*polycm( [\w.+-]+)+", line)]
        assert {line.split()[1] for line in lines} == {
            "eval", "verify-cm", "verify-bounds", "table", "constants"}
        for line in lines:
            assert main(line.split()[1:]) == 0, line

    def test_console_script_installed(self):
        script = shutil.which("polycm")
        cmd = [script] if script else [sys.executable, "-m", "polycm.cli"]
        proc = subprocess.run(
            cmd + ["eval", "--n", "1", "--x", "1.0"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "psi_1(1)" in proc.stdout


def child_env(**overrides) -> dict:
    """The environment of a child interpreter that imports the package under test."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **overrides}


class TestProcessExit:
    """python -m polycm.cli and the polycm script exit through console()."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--n", "3", "--x", "0.5", "--format", "json"],
            ["verify-cm", "--a", "0.5", "--k", "2", "--format", "json"],
            ["verify-bounds", "--a", "0.5", "--k", "2", "--format", "json"],
            ["table", "--a", "0.5", "--k", "2", "--format", "json"],
            ["constants", "--format", "json"],
            ["verify-bounds", "--a", "0.5", "--k", "2", "--hi", "1e9", "--format", "json"],
            ["eval", "--n", "1"],
            ["eval", "--n", "40", "--x", "1e-7"],
        ],
        ids=["eval", "verify-cm", "verify-bounds", "table", "constants", "verdict-fail",
             "usage-error", "numerical-error"],
    )
    def test_process_matches_main(self, capsys, argv):
        # stderr is compared by its end, as a child may print warnings at
        # import that the in-process call printed before capture began; on
        # an error exit that end is not empty
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        proc = subprocess.run([sys.executable, "-m", "polycm.cli", *argv],
                              capture_output=True, text=True, env=child_env())
        assert (proc.returncode, proc.stdout) == (code, out)
        assert proc.stderr.endswith(err)
        assert code in (0, 1) or err != ""

    def test_main_leaves_the_collector_alone(self, capsys):
        before = gc.isenabled(), gc.get_freeze_count()
        assert main(["eval", "--n", "3", "--x", "0.5"]) == 0
        assert main(["verify-bounds", "--a", "0.5", "--k", "2", "--hi", "1e9"]) == 1
        with pytest.raises(SystemExit):
            main(["eval", "--n", "1"])
        assert (gc.isenabled(), gc.get_freeze_count()) == before

    def test_console_exits_with_a_frozen_heap(self):
        # atexit runs its handlers last in, first out, so one registered
        # before console() runs after console() has exited
        script = ("import atexit, gc, polycm.cli; "
                  "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0)); "
                  "polycm.cli.console()")
        proc = subprocess.run([sys.executable, "-c", script, "eval", "--x", "1"],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == [
            "psi_0(1) = -0.57721566490153275", "abs error estimate <= 3.327e-15", "frozen True"]
        assert proc.stderr == ""

    # unbuffered, the first print to the closed pipe raises; buffered, the
    # explicit flush before exit does, or the interpreter's final one would
    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    def test_reader_closed_at_once(self, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "polycm.cli", "eval", "--x", "1"],
                                  stdout=write_end, stderr=subprocess.PIPE, text=True,
                                  env=child_env(PYTHONUNBUFFERED=unbuffered))
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == ""

    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    def test_reader_closed_after_one_line(self, unbuffered):
        # 20,000 csv rows are megabytes, far more than a pipe buffers
        with subprocess.Popen(
                [sys.executable, "-m", "polycm.cli", "table", "--a", "0.5", "--k", "2",
                 "--points", "20000"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                env=child_env(PYTHONUNBUFFERED=unbuffered)) as proc:
            assert proc.stdout.readline() == ",".join(CSV_COLUMNS) + "\n"
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        assert proc.returncode == 141
        assert err == ""
