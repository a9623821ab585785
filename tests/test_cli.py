"""CLI: verbs, formats, exit codes, and the csv round trip."""

from __future__ import annotations

import csv
import io
import json
import shutil
import subprocess
import sys

import pytest

from polycm import GridSpec, ShiftParams, bound_table, polygamma
from polycm.cli import main

CSV_COLUMNS = ["x", "lower", "middle", "upper", "lower_margin", "upper_margin", "passed"]


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
        with pytest.raises(OverflowError):
            polygamma(40, 1e-8)
        code, out, err = run(["eval", "--n", "40", "--x", "1e-8"], capsys)
        assert code == 3
        assert out == ""
        assert err == "polycm: numerical error: a result left the binary64 range\n"

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--n", "1"])
        assert exc.value.code == 2


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

    def test_unreachable_tol_fails(self, capsys):
        code, out, _ = run(
            ["verify-cm", "--a", "0.5", "--k", "0", "--max-order", "1",
             "--lo", "0.5", "--hi", "5", "--points", "6", "--tol", "1e6"],
            capsys,
        )
        assert code == 1
        assert out.strip().endswith("FAIL")

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

    def test_unreachable_tol_fails(self, capsys):
        code, _, _ = run(
            ["verify-bounds", "--a", "0.5", "--k", "2",
             "--lo", "1.5", "--hi", "50", "--points", "6", "--tol", "1.0"],
            capsys,
        )
        assert code == 1


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

    def test_impossible_tol_fails(self, capsys):
        code, out, _ = run(["constants", "--tol", "1e-18"], capsys)
        assert code == 1
        assert "FAIL" in out


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
            ["verify-cm", "--a", "0.5", "--k", "2", "--tol", "nan"],
            ["verify-bounds", "--a", "0.5", "--k", "2", "--tol", "nan"],
            ["constants", "--tol", "nan"],
            ["constants", "--tol", "-1"],
        ],
    )
    def test_bad_tol_is_usage_error(self, capsys, argv):
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("polycm: error: --tol")

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
