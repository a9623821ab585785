"""Self-test of the benchmark's own machinery.

    python3 bench/selftest.py

Pins three defects polycm has as of the commit that added this benchmark.
Each must be counted as a failed operation by the workload that meets it.  A
change that fixes one of them flips its pin; update the pin in that change.

  * polygamma(28, 122322200237.42154) raises OverflowError, although the
    true value, about -3.86e-283, is representable.
  * polygamma(40, 32768107.62192664) is off by about 2.7e8 times its own
    error bar: 2.0 * y ** float(n + 1) overflows to inf and drops the
    n!/(2 y^(n+1)) term.
  * bound_table(ShiftParams(0.034, 0), ...) fails the row at x = 1.11e7:
    the lower margin is about -2e-15 while its own error bar is about 8e-14,
    because `passed` ignores the margin's error bar.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads as W  # noqa: E402


def outcome(workload: str, inp):
    w = W.WORKLOADS[workload]
    return w.check([inp], [w.run(inp)])[0]


class KnownDefects(unittest.TestCase):
    def test_overflow_in_pointwise_is_a_failed_op(self):
        o = outcome("pointwise", (28, 122322200237.42154))
        self.assertTrue(o.failed)
        self.assertIn("OverflowError", o.reason)
        self.assertEqual(o.determinate, 0)

    def test_bar_not_covering_the_error_is_a_failed_op(self):
        o = outcome("pointwise", (40, 32768107.62192664))
        self.assertTrue(o.failed)
        self.assertIn("exceeds bar", o.reason)

    def test_bound_row_failing_inside_its_bar_is_a_failed_op(self):
        o = outcome("verify", (0.034, 0, 0.01, 1.11e7))
        self.assertTrue(o.failed)
        self.assertIn("11100000.0", o.reason)


class Checks(unittest.TestCase):
    def test_correct_outputs_pass(self):
        self.assertFalse(outcome("pointwise", (3, 2.5)).failed)
        self.assertFalse(outcome("crosscheck", (3, 2.5)).failed)
        self.assertFalse(outcome("verify", (0.5, 2, 0.1, 100.0)).failed)

    def test_wrong_value_fails(self):
        inp = (3, 2.5)
        good = W.op_pointwise(inp)
        bad = type(good)(good.value * (1 + 1e-9), good.abs_error_estimate)
        self.assertTrue(W.check_pointwise([inp], [bad])[0].failed)
        self.assertTrue(W.check_crosscheck([inp], [(bad, *W.op_crosscheck(inp)[1:])])[0].failed)

    def test_cli_output_must_match_in_process_call(self):
        argv = ["eval", "--n", "2", "--x", "3.5", "--format", "json"]
        code, text = W.cli_in_process(argv)
        self.assertFalse(W.check_cli([argv], [(code, text)])[0].failed)
        self.assertTrue(W.check_cli([argv], [(code, text.replace("3.5", "3.25"))])[0].failed)
        self.assertTrue(W.check_cli([argv], [(1, text)])[0].failed)


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in W.WORKLOADS.values():
            a = w.draw(random.Random(f"{w.name}:7"))
            self.assertEqual(a, w.draw(random.Random(f"{w.name}:7")))
            self.assertNotEqual(a, w.draw(random.Random(f"{w.name}:8")))

    def test_lhs_hits_every_stratum_once(self):
        pts = W.lhs(random.Random(1), 50, 3)
        for d in range(3):
            self.assertEqual(sorted(int(p[d] * 50) for p in pts), list(range(50)))

    def test_failed_count_repeats_for_a_seed(self):
        w = W.WORKLOADS["pointwise"]
        inputs = w.draw(random.Random("pointwise:1"))[:400]
        counts = [sum(o.failed for o in w.check(inputs, [w.run(i) for i in inputs]))
                  for _ in range(2)]
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0], 0)


class Reporting(unittest.TestCase):
    def test_counts_do_not_depend_on_the_number_of_passes(self):
        outcomes = [W.Outcome(False), W.Outcome(True, "x"), W.Outcome(False)]
        short = run.Phase([0.0] * 3, [], passes=2)
        long = run.Phase([0.0] * 3, [], passes=7, mismatches={2: 1})
        self.assertEqual(run.count_failed(outcomes, [short]), (3, 1, 4))
        self.assertEqual(run.count_failed(outcomes, [long])[:2], (3, 2))
        self.assertEqual(run.count_failed(outcomes, [short, long]), (3, 2, 9))

    def test_tail_keeps_ten_beyond_and_caps_at_p90(self):
        self.assertEqual(run.tail([float(i) for i in range(31)]), (20.0, 200.0 / 3.0))
        self.assertEqual(run.tail([float(i) for i in range(10001)]), (9000.0, 90.0))
        self.assertEqual(run.tail([1.0, 2.0])[0], 2.0)

    def test_result_line_keys(self):
        line = json.loads(run.result_line(True, 3, 1, {"setup_s": (0.2, "s")}))
        self.assertEqual(sorted(line), ["attempted", "correct", "failed", "metrics"])
        self.assertEqual(line["metrics"]["setup_s"], {"value": 0.2, "unit": "s"})

    def test_refuses_to_run_without_source(self):
        # a copy of the benchmark alone, with no src/ beside it
        import shutil
        import tempfile

        with tempfile.TemporaryDirectory(dir=BENCH.parent / ".bench_out") as tmp:
            shutil.copytree(BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1",
                 "--seconds", "1"], cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    (BENCH.parent / ".bench_out").mkdir(exist_ok=True)
    unittest.main()
