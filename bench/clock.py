"""Times scaled to a reference host speed.

On a shared host the speed of one core drifts by tens of percent over
seconds to minutes, and every wall-clock median of a run follows it.  Each
timed interval is therefore bracketed by a probe of known, fixed work, and
reported as

    measured time * reference / (mean of the probe times before and after it)

which is what the interval would have taken when the probe takes
`reference`.  A probe only corrects work that slows down the way it does,
so each workload names the probe that matches its dominant work:

  * "loop": a Python loop of float arithmetic, logs and powers, the
    operations polycm's engine and scans are made of;
  * "numpy": a numpy power-and-sum over a million terms in two fresh
    arrays, the shape and size of the series oracle's work.  About a third
    of that work is the kernel mapping fresh pages, whose cost drifts apart
    from the core's, so the probe allocates as the oracle does.  It holds no
    more memory at once than the oracle, so it does not raise peak_rss_mb;
  * "spawn": `python -c pass`.  Process start does not follow the core's
    speed the way a loop does, but the bare interpreter start does.

The references are about the probes' times on the 2-core Xeon host the
benchmark was written on, so scaled figures read close to wall time there.
Raw wall times are reported beside the scaled ones.
"""

from __future__ import annotations

import math
import subprocess
import sys
from time import perf_counter

LOOP_N = 6_000
NUMPY_N = 1_000_000


def loop_probe() -> float:
    t0 = perf_counter()
    acc = 0.0
    for j in range(LOOP_N):
        acc += math.log(j + 1.5) / (j + 0.5) ** 3.0
    return perf_counter() - t0


def numpy_probe() -> float:
    import numpy as np

    t0 = perf_counter()
    k = np.arange(NUMPY_N, dtype=float)
    k += 1.5
    float(np.sum(k ** -3.0))
    return perf_counter() - t0


def spawn_probe() -> float:
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return perf_counter() - t0


#: probe name -> (probe, reference seconds, block seconds).  Ops are grouped
#: into blocks of at least `block seconds` of op time between two probes, so
#: probing costs a fraction of the op time and short ops are not swamped.
PROBES = {
    "loop": (loop_probe, 2.0e-3, 0.005),
    "numpy": (numpy_probe, 7.8e-3, 0.04),
    "spawn": (spawn_probe, 0.055, 0.005),
}


class ScaledClock:
    """Scale factors for consecutive intervals, one fresh probe per interval."""

    def __init__(self, name: str) -> None:
        self.probe, self.reference, self.block_s = PROBES[name]
        self.probes = [self.probe()]

    def factor(self) -> float:
        """Factor for the interval since the previous probe."""
        self.probes.append(self.probe())
        return 2.0 * self.reference / (self.probes[-2] + self.probes[-1])
