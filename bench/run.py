"""polycm benchmark: one workload per run, closed loop, one client, one thread.

    python3 bench/run.py --workload verify --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; polycm is imported from ./src.  The
run draws a fixed batch of inputs from the seed, warms up on the first one,
then makes whole passes over the batch until --seconds have gone by, timing
every operation.  Every output is checked after the timed phase; a wrong
value, a wrong verdict, a bar that does not cover the error or an exception
counts that operation as failed.  Nothing is redrawn or dropped.
`attempted` and `failed` count the distinct inputs of the batch, so for one
seed they are the same however many passes the time allowed.

--trace 0 prints the end-to-end metrics.  --trace 1 spends half the time
untraced and half with spans around every call into polycm's modules, and
prints the per-layer metrics, the import-time split and the tracing
overhead; the spans go to .bench_out/spans-<workload>.csv.gz.

The last line of standard output is the JSON result
{"correct", "attempted", "failed", "metrics"}; the lines before it are a
readable report and a JSON record of the environment and inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import clock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 9      # fresh `import polycm` interpreters per run
IMPORT_REPEATS = 5     # -X importtime interpreters per traced run
TAIL_BEYOND = 10       # ops that must lie beyond the reported tail
TAIL_CAP = 0.90        # the tail is never taken above p90


@dataclass
class Phase:
    """Timed operations of whole passes over the batch.

    Latencies are summed per input rather than kept per op, so the memory the
    benchmark itself holds does not grow with the number of ops and does not
    leak into peak_rss_mb.
    """

    scaled_s: list[float]                # per input: summed scaled latency over passes
    outputs: list                        # per input, from the first pass
    wall_s: float = 0.0                  # unscaled sum over every op
    mismatches: dict[int, int] = field(default_factory=dict)  # input -> repeats that differed
    passes: int = 0

    @property
    def ops(self) -> int:
        return self.passes * len(self.scaled_s)

    def op_latencies(self) -> list[float]:
        """Every op's latency, sorted, each taken as its input's mean."""
        return [t / self.passes for t in sorted(self.scaled_s) for _ in range(self.passes)]


def same(a, b) -> bool:
    return a == b or repr(a) == repr(b)


def run_phase(workload, inputs, seconds: float, reference=None, tracer=None, after=None) -> Phase:
    """Whole passes until `seconds` have elapsed.  Outputs of the first pass
    (or `reference`) are kept; a later output that differs is a mismatch.

    Ops are timed one by one and scaled in blocks: a probe runs whenever the
    ops since the last probe add up to the probe's block time, and at each
    pass end.
    """
    scaled = clock.ScaledClock(workload.probe)
    phase = Phase([0.0] * len(inputs), list(reference) if reference is not None else [])
    pending: list[tuple[int, float]] = []
    pending_s = 0.0

    def flush() -> None:
        nonlocal pending_s
        f = scaled.factor()
        for i, t in pending:
            phase.scaled_s[i] += t * f
        phase.wall_s += pending_s
        pending.clear()
        pending_s = 0.0

    start = perf_counter()
    op_id = 0
    while True:
        first = reference is None and phase.passes == 0
        for i, inp in enumerate(inputs):
            if tracer is not None:
                tracer.op_id = op_id
            op_id += 1
            t0 = perf_counter()
            out = workload.run(inp)
            t = perf_counter() - t0
            pending.append((i, t))
            pending_s += t
            if first:
                phase.outputs.append(out)
            elif not same(out, phase.outputs[i]):
                phase.mismatches[i] = phase.mismatches.get(i, 0) + 1
            if after is not None:
                after(inp)
            if pending_s >= scaled.block_s:
                flush()
        if pending:
            flush()
        phase.passes += 1
        if perf_counter() - start >= seconds:
            return phase


def tail(sorted_values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile, up to TAIL_CAP, that has
    at least TAIL_BEYOND values beyond it; the maximum when there are fewer."""
    n = len(sorted_values)
    i = min(n - 1 - TAIL_BEYOND, int(TAIL_CAP * (n - 1)))
    if i < 0:
        i = n - 1
    return sorted_values[i], 100.0 * i / (n - 1) if n > 1 else 100.0


def measure_setup(repeats: int) -> tuple[float, float]:
    """Median of `repeats` fresh interpreters running `import polycm`:
    (scaled, wall) seconds."""
    cmd = [sys.executable, "-c", "import polycm"]
    subprocess.run(cmd, check=True)  # compiles bytecode and warms the page cache
    scaled = clock.ScaledClock("spawn")
    wall, times = [], []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run(cmd, check=True)
        wall.append(perf_counter() - t0)
        times.append(wall[-1] * scaled.factor())
    return statistics.median(times), statistics.median(wall)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(workload: str, seed: int, inputs: list) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "inputs": len(inputs),
        "inputs_sha256": hashlib.sha256(repr(inputs).encode()).hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def count_failed(outcomes, phases) -> tuple[int, int, int]:
    """(attempted, failed, correct_ops).

    attempted and failed count the distinct inputs of the batch: an input
    fails when its checked output failed or when a later pass gave another
    output.  The number of passes depends on the host's speed, so counting
    timed ops instead would make the counts of one seed differ from run to
    run.  correct_ops counts the timed ops of the inputs that did not fail.
    """
    bad = {i for i, o in enumerate(outcomes) if o.failed}
    for phase in phases:
        bad.update(phase.mismatches)
    correct_ops = sum(phase.passes for phase in phases) * (len(outcomes) - len(bad))
    return len(outcomes), len(bad), correct_ops


def end_to_end(workload, phase: Phase, outcomes, setup_s: float, peak_rss_mb: float,
               attempted: int, failed: int, correct_ops: int) -> tuple[dict, dict]:
    """The end-to-end metrics (timings scaled, see clock.py), and the figures
    the report prints beside them."""
    lat = phase.op_latencies()
    tail_s, tail_pct = tail(lat)
    samples = sum(o.samples for o in outcomes)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (correct_ops / sum(lat), "1/s"),
        "op_ms_p50": (1e3 * statistics.median(lat), "ms"),
        "op_ms_tail": (1e3 * tail_s, "ms"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "coverage": (sum(o.determinate for o in outcomes) / samples if samples else 1.0, "ratio"),
        "bar_rel_p50": (workload.bar_summary(outcomes), "ratio"),
    }
    extra = {
        "fail_ratio": failed / attempted,
        "op_ms_tail_percentile": tail_pct,
        "latency_samples": len(lat),
        "passes": phase.passes,
        "timed_ops": phase.ops,
        "wall_ops_per_s": correct_ops / phase.wall_s,
    }
    return metrics, extra


def report_failures(inputs, outcomes, limit: int = 5) -> None:
    bad = [(inp, o.reason) for inp, o in zip(inputs, outcomes) if o.failed]
    print(f"failed inputs: {len(bad)} of {len(inputs)} per pass")
    for inp, reason in bad[:limit]:
        print(f"  {inp!r}: {reason}")


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify", "pointwise", "crosscheck", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "polycm" / "__init__.py").is_file():
        print(f"bench: no polycm source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    sys.path.insert(0, str(SRC))

    import tracing
    import workloads

    w = workloads.WORKLOADS[args.workload]
    inputs = w.draw(random.Random(f"{w.name}:{args.seed}"))
    env = environment(w.name, args.seed, inputs)
    print(f"workload {w.name}: {w.why}")

    if args.trace == 0:
        setup_s, setup_wall_s = measure_setup(SETUP_REPEATS)
        w.run(inputs[0])  # warm-up, untimed
        phase = run_phase(w, inputs, args.seconds)
        usage = resource.RUSAGE_CHILDREN if w.probe == "spawn" else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
        outcomes = w.check(inputs, phase.outputs)
        attempted, failed, correct_ops = count_failed(outcomes, [phase])
        metrics, extra = end_to_end(w, phase, outcomes, setup_s, peak_rss_mb,
                                    attempted, failed, correct_ops)
        extra["setup_wall_s"] = setup_wall_s
        correct = not phase.mismatches
    else:
        metrics = tracing.import_metrics(IMPORT_REPEATS)
        w.run(inputs[0])
        plain = run_phase(w, inputs, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_phase(w, inputs, args.seconds / 2, reference=plain.outputs, tracer=tracer,
                               after=workloads.cli_in_process if w.name == "cli" else None)
        finally:
            tracer.uninstall()
        spans_path = ROOT / ".bench_out" / f"spans-{w.name}.csv.gz"
        tracer.write(spans_path)
        outcomes = w.check(inputs, plain.outputs)
        attempted, failed, _ = count_failed(outcomes, [plain, traced])
        metrics.update(tracing.layer_metrics(tracer.spans, traced.passes))
        metrics["oracle.agree_worst"] = (max(o.agree for o in outcomes), "ratio")
        # both phases make whole passes over one batch, so they have the same
        # share of correct ops and the ratio of correct ops per second is this
        metrics["bench.trace_overhead"] = (
            (traced.ops / sum(traced.scaled_s)) / (plain.ops / sum(plain.scaled_s)), "ratio")
        extra = {"fail_ratio": failed / attempted, "timed_ops": plain.ops + traced.ops,
                 "passes_untraced": plain.passes,
                 "passes_traced": traced.passes, "spans": len(tracer.spans),
                 "spans_file": str(spans_path.relative_to(ROOT))}
        correct = not plain.mismatches and not traced.mismatches

    report_failures(inputs, outcomes)
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    print("report " + json.dumps({"environment": env, **extra}))
    print(result_line(correct, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
