"""Machine-speed probe: fixed reference work timed next to every measurement.

The reference machine (2 vCPUs on a shared host) changes speed in phases of
tens of seconds to minutes, by up to ±40 %: a pure-Python loop and small
numpy calls slow down about as much as cellpilot's single-threaded code.
A run of ten seconds lands in one phase, so raw times of the same code
spread across runs by more than any useful regression bound.

The probe times two small kernels, an interpreter loop and a chain of
small-array numpy calls, the two kinds of work that dominate cellpilot's
single-threaded paths, and returns a speed factor: the probe's time over
its time on the reference machine in a fast phase. A run probes around
every set-up repetition and unit; its times divided by the median factor
of its probes are times at reference speed. The kernels use no cellpilot
code, so no change to the package moves the factor. Kernels that stream
memory or call BLAS tracked the workloads worse than these two on the
reference machine and were left out.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel times (s) on the reference machine in a fast phase: 2 vCPUs of an Intel Xeon (Sapphire Rapids), Python 3.11, numpy 2.4.
NOMINAL_S = {"py": 0.0150, "np": 0.0125}
# a probe runs at least this many rounds of the kernels
MIN_ROUNDS = 3

_SMALL = np.random.default_rng(0).random(500)


def _py():
    s = 0
    for i in range(200_000):
        s += i * i
    return s


def _np():
    x = _SMALL
    for _ in range(4_000):
        x = np.sqrt(x * 1.0001 + 0.5)
    return x


KERNELS = {"py": _py, "np": _np}


def probe(seconds: float) -> dict:
    """Median time of each kernel, in seconds, over rounds of all kernels.

    Rounds repeat for at least ``seconds`` and MIN_ROUNDS rounds. The
    median ignores both a call an interrupt hit and a call that caught a
    brief fast moment; a slow phase of the machine slows every call.
    """
    runs = {name: [] for name in KERNELS}
    start = time.perf_counter()
    while (len(runs["py"]) < MIN_ROUNDS
           or time.perf_counter() - start < seconds):
        for name, kernel in KERNELS.items():
            t0 = time.perf_counter()
            kernel()
            runs[name].append(time.perf_counter() - t0)
    return {name: statistics.median(r) for name, r in runs.items()}


def factor(times: dict) -> float:
    """Probe time over nominal time, averaged over the kernels (1 = nominal)."""
    return statistics.fmean(times[k] / NOMINAL_S[k] for k in NOMINAL_S)


def run_factor(probes: list) -> float:
    """Median factor of a run's probes; 1 when the run took none."""
    return statistics.median(factor(p) for p in probes) if probes else 1.0
