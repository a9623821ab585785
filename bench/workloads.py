"""Seeded inputs, the timed operation and the untimed check of each workload.

Every workload draws a fixed batch of inputs from its seed with Latin
hypercube sampling: each coordinate is split into as many equal strata as
the batch has inputs and every stratum is hit once.  The marginals are the
plain uniform / log-uniform draws the workload describes, but the spread of
batch averages from one seed to the next is far smaller than with
independent draws, which keeps throughput and medians comparable across
seeds.

An operation returns whatever polycm returned, or a Raised record when it
raised.  The check runs after the timed phase and turns one output into an
Outcome: whether the op failed and the values the end-to-end metrics are
built from.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

import polycm.bounds as bounds
import polycm.cli as cli
import polycm.cm as cm
import polycm.oracle as oracle

# The package re-exports the function polygamma under the module's own name,
# so the engine module is fetched from sys.modules.
engine = sys.modules["polycm.polygamma"]

#: verify: cm_scan orders 0..VERIFY_ORDERS on VERIFY_SCAN_POINTS log points,
#: bound_table on VERIFY_TABLE_POINTS log points in [1.001, hi].
VERIFY_ORDERS = 8
VERIFY_SCAN_POINTS = 60
VERIFY_TABLE_POINTS = 50
VERIFY_K_MAX = 32  # k + VERIFY_ORDERS stays within polycm's order cap of 40
VERIFY_BATCH = 8 * (VERIFY_K_MAX + 1)

ORDER_MAX = 40
CLI_VERBS = ("eval", "verify-cm", "verify-bounds", "table", "constants")
CLI_ROUNDS = 20
CLI_TIMEOUT_S = 60.0
REFEREE_DIGITS = 40


@dataclass(frozen=True)
class Raised:
    """An exception raised by an operation, kept as data."""

    kind: str
    message: str


@dataclass
class Outcome:
    """The checked result of one input."""

    failed: bool
    reason: str = ""
    samples: int = 0          # sign decisions asked for
    determinate: int = 0      # sign decisions polycm could make
    bar_rel: list[float] = field(default_factory=list)  # bar / |value|, one per route
    agree: float = 0.0        # crosscheck: worst |diff| / (sum of bars) over pairs


def median_bar(outcomes: list[Outcome]) -> float:
    """Median relative bar over every value the outcomes carry."""
    bars = [b for o in outcomes for b in o.bar_rel]
    return statistics.median(bars) if bars else 0.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    probe: str  # the clock.PROBES entry matching the dominant work
    draw: Callable[[random.Random], list]
    op: Callable[[Any], Any]
    check: Callable[[list, list], list[Outcome]]
    bar_summary: Callable[[list[Outcome]], float] = median_bar

    def run(self, inp):
        """The op's output, or a Raised record: an op that raised is a
        failed op, not a crash of the benchmark."""
        try:
            return self.op(inp)
        except Exception as exc:
            return Raised(type(exc).__name__, str(exc))


def route_bar(outcomes: list[Outcome]) -> float:
    """Geometric mean over the routes of each route's median relative bar.

    The widest route per op (quadrature or series, depending on n and x)
    puts the plain median on the border of two regimes that differ a
    hundredfold, so it jumps from seed to seed; each route's own median is
    steady, and a widening of any route moves their geometric mean.
    """
    routes = [o.bar_rel for o in outcomes if o.bar_rel]
    if not routes:
        return 0.0
    medians = [statistics.median(r[k] for r in routes) for k in range(len(routes[0]))]
    return math.exp(statistics.fmean(math.log(m) for m in medians))


def lhs(rng: random.Random, count: int, dims: int) -> list[tuple[float, ...]]:
    """count points in (0, 1)^dims, one per stratum in every coordinate."""
    cols = []
    for _ in range(dims):
        perm = list(range(count))
        rng.shuffle(perm)
        cols.append([(p + (rng.random() or 0.5)) / count for p in perm])
    return list(zip(*cols))


def _int_in(u: float, hi: int) -> int:
    """Uniform integer in 0..hi from u in (0, 1)."""
    return min(hi, int(u * (hi + 1)))


def _log_in(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def _rel(bar: float, value: float) -> float:
    return bar / abs(value) if value != 0.0 else math.inf


def _middle_bar_rel(row: dict) -> float:
    """Relative bar of psi_k(x+a) - psi_k(x) in a bound row.

    The side of the chain without the endpoint constant carries only the
    middle value's bar (plus ulp-level terms), so the smaller margin bar is
    that bar.  Taken at the grid's first row, x = 1.001, where both bounds
    collapse towards equality and this bar decides the verdict.
    """
    return _rel(min(row["lower_margin_error"], row["upper_margin_error"]), row["middle"])


# verify ---------------------------------------------------------------------

def draw_verify(rng: random.Random) -> list[tuple[float, int, float, float]]:
    out = []
    for ua, uk, ulo, uhi in lhs(rng, VERIFY_BATCH, 4):
        out.append((ua, _int_in(uk, VERIFY_K_MAX), _log_in(ulo, 1e-3, 1.0), _log_in(uhi, 1e2, 1e14)))
    return out


def op_verify(inp):
    a, k, lo, hi = inp
    p = cm.ShiftParams(a, k)
    report = cm.cm_scan(p, VERIFY_ORDERS, cm.GridSpec(lo, hi, VERIFY_SCAN_POINTS))
    rows = bounds.bound_table(p, cm.GridSpec(1.001, hi, VERIFY_TABLE_POINTS))
    return report, rows


def check_verify(inputs: list, outputs: list) -> list[Outcome]:
    """The paper's claims hold for every draw, so every verdict must be a pass."""
    samples = (VERIFY_ORDERS + 1) * VERIFY_SCAN_POINTS
    result = []
    for out in outputs:
        if isinstance(out, Raised):
            result.append(Outcome(True, f"raised {out.kind}", samples, 0))
            continue
        report, rows = out
        o = Outcome(False, "", samples, samples - report.indeterminate_count,
                    [_middle_bar_rel(vars(rows[0]))])
        bad_rows = [r.x for r in rows if not r.passed]
        if not report.passed:
            o.failed, o.reason = True, "cm_scan verdict FAIL"
        elif bad_rows:
            o.failed, o.reason = True, f"bound rows failed at x={bad_rows}"
        result.append(o)
    return result


# pointwise ------------------------------------------------------------------

def draw_pointwise(rng: random.Random) -> list[tuple[int, float]]:
    return [(_int_in(un, ORDER_MAX), _log_in(ux, 1e-3, 1e12))
            for un, ux in lhs(rng, 50 * (ORDER_MAX + 1), 2)]


def op_pointwise(inp):
    n, x = inp
    return engine.polygamma(n, x)


def check_pointwise(inputs: list, outputs: list) -> list[Outcome]:
    """The bar must cover the distance to a 40-digit mpmath referee."""
    import mpmath

    mpmath.mp.dps = REFEREE_DIGITS
    result = []
    for (n, x), out in zip(inputs, outputs):
        if isinstance(out, Raised):
            result.append(Outcome(True, f"raised {out.kind}", 1, 0))
            continue
        ref = mpmath.polygamma(n, mpmath.mpf(x))
        err = abs(mpmath.mpf(out.value) - ref)
        o = Outcome(False, "", 1, int(abs(out.value) > out.abs_error_estimate),
                    [_rel(out.abs_error_estimate, out.value)])
        if not err <= out.abs_error_estimate:
            o.failed = True
            o.reason = f"error {mpmath.nstr(err, 3)} exceeds bar {out.abs_error_estimate:.3e}"
        result.append(o)
    return result


# crosscheck -----------------------------------------------------------------

def draw_crosscheck(rng: random.Random) -> list[tuple[int, float]]:
    return [(_int_in(un, ORDER_MAX), _log_in(ux, 1e-3, 1e6))
            for un, ux in lhs(rng, 4 * (ORDER_MAX + 1), 2)]


def op_crosscheck(inp):
    n, x = inp
    e = engine.polygamma(n, x)
    s = oracle.digamma_series(x) if n == 0 else oracle.polygamma_series(n, x)
    q = oracle.polygamma_integral(n, x)
    return e, s, q


def check_crosscheck(inputs: list, outputs: list) -> list[Outcome]:
    """Engine, series oracle and quadrature oracle agree pairwise within their bars."""
    result = []
    for out in outputs:
        if isinstance(out, Raised):
            result.append(Outcome(True, f"raised {out.kind}", 1, 0))
            continue
        e, s, q = out
        worst = 0.0
        for r1, r2 in ((e, s), (e, q), (s, q)):
            bars = r1.abs_error_estimate + r2.abs_error_estimate
            diff = abs(r1.value - r2.value)
            worst = max(worst, diff / bars if bars > 0.0 else (0.0 if diff == 0.0 else math.inf))
        o = Outcome(worst > 1.0, "", 1, int(abs(e.value) > e.abs_error_estimate),
                    [_rel(r.abs_error_estimate, r.value) for r in out], worst)
        if o.failed:
            o.reason = f"routes disagree: worst |diff|/bars {worst:.3g}"
        result.append(o)
    return result


# cli ------------------------------------------------------------------------

def draw_cli(rng: random.Random) -> list[list[str]]:
    """CLI_ROUNDS rounds over the five verbs, seeded arguments, default grids."""
    out = []
    for un, ux, ua1, uk1, ua2, uk2, ua3, uk3 in lhs(rng, CLI_ROUNDS, 8):
        args = {
            "eval": ["--n", str(_int_in(un, ORDER_MAX)), "--x", repr(_log_in(ux, 1e-3, 1e12))],
            "verify-cm": ["--a", repr(ua1), "--k", str(_int_in(uk1, VERIFY_K_MAX))],
            "verify-bounds": ["--a", repr(ua2), "--k", str(_int_in(uk2, ORDER_MAX))],
            "table": ["--a", repr(ua3), "--k", str(_int_in(uk3, ORDER_MAX))],
            "constants": [],
        }
        out += [[verb, *args[verb], "--format", "json"] for verb in CLI_VERBS]
    return out


def op_cli(argv: list[str]):
    """A fresh interpreter; it inherits PYTHONPATH and the thread limits."""
    proc = subprocess.run(
        [sys.executable, "-m", "polycm.cli", *argv],
        capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout


def cli_in_process(argv: list[str]) -> tuple[int, str]:
    """The same call made through polycm.cli.main, stdout captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _parse(text: str):
    return json.loads(text) if text.strip() else None


def check_cli(inputs: list, outputs: list) -> list[Outcome]:
    """Exit code and parsed output equal the in-process call."""
    samples = (VERIFY_ORDERS + 1) * VERIFY_SCAN_POINTS  # verify-cm defaults
    result = []
    for argv, out in zip(inputs, outputs):
        verb = argv[0]
        if isinstance(out, Raised):
            result.append(Outcome(True, f"raised {out.kind}", samples if verb == "verify-cm" else 0))
            continue
        code, text = out
        want_code, want_text = cli_in_process(argv)
        parsed = _parse(text)
        o = Outcome(False)
        if code != want_code or parsed != _parse(want_text):
            o.failed, o.reason = True, f"exit {code} vs in-process {want_code}, or output differs"
        if verb == "verify-cm":
            o.samples = samples
            if parsed is not None:
                o.samples = len(parsed["derivative_orders"]) * parsed["grid"]["points"]
                o.determinate = o.samples - parsed["indeterminate_count"]
        elif verb in ("verify-bounds", "table") and parsed is not None:
            rows = parsed["rows"] if verb == "verify-bounds" else parsed
            o.bar_rel = [_middle_bar_rel(rows[0])]
        result.append(o)
    return result


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify",
            "cm_scan plus bound_table per draw, the paper's claim as users run it; "
            "engine calls from cm and bounds dominate",
            "loop", draw_verify, op_verify, check_verify,
        ),
        Workload(
            "pointwise",
            "independent scalar polygamma calls with nothing shared, checked "
            "against a 40-digit mpmath referee",
            "loop", draw_pointwise, op_pointwise, check_pointwise,
        ),
        Workload(
            "crosscheck",
            "engine, series oracle and quadrature oracle at one point; "
            "time is almost all in the oracles",
            "numpy", draw_crosscheck, op_crosscheck, check_crosscheck,
            route_bar,
        ),
        Workload(
            "cli",
            "one fresh python -m polycm.cli process per op, round-robin over the "
            "five verbs; interpreter start and import dominate",
            "spawn", draw_cli, op_cli, check_cli,
        ),
    )
}
