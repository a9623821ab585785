"""Spans around the calls into each polycm module, recorded from outside.

The tracer replaces public names at module boundaries with wrappers for the
length of the traced phase and puts the originals back afterwards; polycm's
own source is not touched.  Wrapped names:

  * engine: polygamma (the function the benchmark calls, and the copies that
    cm and bounds import) and factorial_over_power (the copies in cm and bounds)
  * oracle: the public series and quadrature functions
  * cm.cm_scan, bounds.bound_table and cli.main, plus cli's own imported
    copies of polygamma, cm_scan and bound_table

A span is [name, start_ns, end_ns, parent, op_id, arg, result, raised].
`arg` and `result` hold a number taken from the call's arguments or return
value (shift steps, series terms, scan samples, indeterminate count, ...).
Spans stay in memory and are written out once, after the traced phase.
"""

from __future__ import annotations

import csv
import gzip
import math
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable

import polycm.bounds as bounds
import polycm.cli as cli
import polycm.cm as cm
import polycm.oracle as oracle

engine = sys.modules["polycm.polygamma"]

SERIES = ("polygamma_series", "digamma_series")
QUAD = ("polygamma_integral", "power_integral", "gap_integral_even", "gap_integral_odd")

NAME, START, END, PARENT, OP, ARG, RESULT, RAISED = range(8)


def _shift_steps(n, x, *_, **__) -> int:
    """Recurrence shifts the engine takes for (n, x), from the public threshold."""
    try:
        return max(0, math.ceil(engine.shift_threshold(n) - float(x)))
    except (TypeError, ValueError, OverflowError):
        return 0


def _series_terms(*args, spec=None) -> int:
    """Terms the series oracle sums: max_terms of the SeriesSpec it was given."""
    if spec is None:
        spec = args[-1] if isinstance(args[-1], oracle.SeriesSpec) else oracle.SeriesSpec()
    return spec.max_terms


def _scan_samples(p, max_order, grid) -> int:
    return (max_order + 1) * grid.points


def _table_rows(p, grid) -> int:
    return grid.points


def _cli_verb(argv=None) -> str:
    return argv[0] if argv else ""


class Tracer:
    """Installs the wrappers, collects their spans, puts the originals back."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def wrap(self, name: str, fn: Callable, arg: Callable | None = None,
             result: Callable | None = None) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.op_id,
                    arg(*args, **kwargs) if arg else 0, 0, False]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = perf_counter_ns()
                stack.pop()
            if result:
                span[RESULT] = result(out)
            return out

        return traced

    def _patch(self, module, attr: str, name: str, arg=None, result=None) -> None:
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, arg, result))

    def install(self) -> None:
        self._patch(engine, "polygamma", "polygamma", _shift_steps)
        for module in (cm, bounds):
            self._patch(module, "polygamma", "polygamma", _shift_steps)
            self._patch(module, "factorial_over_power", "factorial_over_power")
        for attr in SERIES:
            self._patch(oracle, attr, attr, _series_terms)
        for attr in QUAD:
            self._patch(oracle, attr, attr)
        self._patch(cm, "cm_scan", "cm_scan", _scan_samples, lambda r: r.indeterminate_count)
        self._patch(bounds, "bound_table", "bound_table", _table_rows,
                    lambda rows: sum(not r.passed for r in rows))
        # cli imported its own copies of these names; wrapped too, so that the
        # in-process cli.main calls of the cli workload reach the same layers
        self._patch(cli, "polygamma", "polygamma", _shift_steps)
        self._patch(cli, "cm_scan", "cm_scan", _scan_samples, lambda r: r.indeterminate_count)
        self._patch(cli, "bound_table", "bound_table", _table_rows,
                    lambda rows: sum(not r.passed for r in rows))
        self._patch(cli, "main", "cli.main", _cli_verb)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("name", "start_ns", "end_ns", "parent", "op_id", "arg", "result", "raised"))
            writer.writerows(self.spans)


def layer_metrics(spans: list[list], passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer numbers from the spans of `passes` whole passes over the batch.

    Counts and busy times are per pass, so they repeat exactly for one seed;
    a layer the workload does not reach reads 0.
    """
    dur = [s[END] - s[START] for s in spans]
    child_ns = [0] * len(spans)
    engine_children = [0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child_ns[s[PARENT]] += dur[i]
            if s[NAME] == "polygamma":
                engine_children[s[PARENT]] += 1

    def pick(*names):
        return [i for i, s in enumerate(spans) if s[NAME] in names]

    def per_pass(x):
        return x / passes

    def ms(idx):
        return per_pass(sum(dur[i] for i in idx) / 1e6)

    eng, fop = pick("polygamma"), pick("factorial_over_power")
    series, quad = pick(*SERIES), pick(*QUAD)
    scans, tables = pick("cm_scan"), pick("bound_table")
    done_scans = [i for i in scans if not spans[i][RAISED]]
    done_tables = [i for i in tables if not spans[i][RAISED]]

    def ratio(num, den):
        return num / den if den else 0.0

    terms = per_pass(sum(spans[i][ARG] for i in series))
    out = {
        "polygamma.calls": (per_pass(len(eng)), "count"),
        "polygamma.busy_ms": (ms(eng), "ms"),
        "polygamma.call_us_p50": (statistics.median(dur[i] for i in eng) / 1e3 if eng else 0.0, "us"),
        "polygamma.raised": (per_pass(sum(spans[i][RAISED] for i in eng)), "count"),
        "polygamma.fop_calls": (per_pass(len(fop)), "count"),
        "polygamma.shift_steps": (per_pass(sum(spans[i][ARG] for i in eng)), "count"),
        "oracle.series_calls": (per_pass(len(series)), "count"),
        "oracle.series_busy_ms": (ms(series), "ms"),
        "oracle.series_terms": (terms, "count"),
        "oracle.series_bytes_computed": (8.0 * terms, "B"),
        "oracle.quad_calls": (per_pass(len(quad)), "count"),
        "oracle.quad_busy_ms": (ms(quad), "ms"),
        "cm.scan_calls": (per_pass(len(scans)), "count"),
        "cm.scan_busy_ms": (ms(scans), "ms"),
        "cm.self_ms": (per_pass(sum(dur[i] - child_ns[i] for i in scans) / 1e6), "ms"),
        "cm.samples": (per_pass(sum(spans[i][ARG] for i in scans)), "count"),
        "cm.indeterminate": (per_pass(sum(spans[i][RESULT] for i in done_scans)), "count"),
        "cm.engine_calls_per_sample": (
            ratio(sum(engine_children[i] for i in done_scans),
                  sum(spans[i][ARG] for i in done_scans)), "ratio"),
        "bounds.table_calls": (per_pass(len(tables)), "count"),
        "bounds.table_busy_ms": (ms(tables), "ms"),
        "bounds.self_ms": (per_pass(sum(dur[i] - child_ns[i] for i in tables) / 1e6), "ms"),
        "bounds.rows": (per_pass(sum(spans[i][ARG] for i in tables)), "count"),
        "bounds.rows_failed": (per_pass(sum(spans[i][RESULT] for i in done_tables)), "count"),
        "bounds.engine_calls_per_row": (
            ratio(sum(engine_children[i] for i in done_tables),
                  sum(spans[i][ARG] for i in done_tables)), "ratio"),
    }
    mains = pick("cli.main")
    for verb in ("eval", "verify-cm", "verify-bounds", "table", "constants"):
        times = [dur[i] / 1e6 for i in mains if spans[i][ARG] == verb]
        out[f"cli.main_ms.{verb}"] = (statistics.median(times) if times else 0.0, "ms")
    return out


#: -X importtime rows reported as layers: (metric, module, column).  numpy is
#: taken whole (cumulative); polycm's modules by their own (self) time.
IMPORT_LAYERS = (
    ("numpy.import_ms", "numpy", "cumulative"),
    ("constants.import_ms", "polycm.constants", "self"),
    ("polygamma.import_ms", "polycm.polygamma", "self"),
    ("cm.import_ms", "polycm.cm", "self"),
    ("bounds.import_ms", "polycm.bounds", "self"),
    ("oracle.import_ms", "polycm.oracle", "self"),
    ("cli.import_ms", "polycm.cli", "self"),
)


def parse_importtime(stderr: str) -> dict[str, tuple[float, float]]:
    """module -> (self us, cumulative us) from `python -X importtime` output."""
    rows = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        rows[name.strip()] = (float(self_us), float(cum_us))
    return rows


def import_metrics(repeats: int) -> dict[str, tuple[float, str]]:
    """Median import self times of each layer and the bare interpreter start."""
    samples: dict[str, list[float]] = {m: [] for m, _, _ in IMPORT_LAYERS}
    start = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import polycm.cli"],
                              capture_output=True, text=True, check=True)
        rows = parse_importtime(proc.stderr)
        for metric, module, column in IMPORT_LAYERS:
            self_us, cum_us = rows[module]
            samples[metric].append((cum_us if column == "cumulative" else self_us) / 1e3)
        t0 = perf_counter_ns()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        start.append((perf_counter_ns() - t0) / 1e6)
    out = {m: (statistics.median(v), "ms") for m, v in samples.items()}
    out["interp.start_ms"] = (statistics.median(start), "ms")
    return out
