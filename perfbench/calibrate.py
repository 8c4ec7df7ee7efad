"""Machine-speed reference: a fixed task timed between the measured commands.

The benchmark shares a few cores of a host with other tenants, and the speed
of one core drifts with their load: the same command takes anywhere from 0.5
to 1.1 times its usual time within minutes, and the level moves by a third
over tens of minutes. Every timing the benchmark reports is therefore scaled
to a reference speed:

    scaled = wall seconds * REFERENCE_S / (time of the reference task nearby)

The reference task is the benchmark's own code and never touches noisedist,
so a change to the program moves the scaled figure exactly as it moves the
wall time, while a change of machine speed cancels. Its mix follows the
program's: an interpreted loop of scalar float math and dict stores, many
numpy calls on tiny arrays, a few on cache-sized ones, two passes over an
array larger than a core's private caches, and float formatting. A host whose other
tenants are busy slows each part by a different amount, and the mix tracks
all four workloads' slowdowns better than any part alone.
"""

from __future__ import annotations

import math
import os
import statistics
import time

import numpy as np

# the reference task's nominal time: scaled figures read as seconds on a
# machine that runs the task in 13 ms, about this benchmark's usual host
REFERENCE_S = 0.013

_SMALL = np.linspace(0.01, 0.99, 8)
_LARGE = np.linspace(0.01, 0.99, 50_000)
# 4 MB in all, computed in place so that the task never raises peak RSS
_HUGE = np.linspace(0.01, 0.99, 250_000)
_HUGE_OUT = np.empty_like(_HUGE)


def reference_task() -> float:
    acc = 0.0
    store = {}
    for i in range(3000):
        x = (i % 97) / 97.0 + 1e-3
        acc += math.log2(x) * x
        store[i & 255] = acc
    for _ in range(300):
        acc += float(np.sum(-_SMALL * np.log2(_SMALL)))
    for _ in range(6):
        acc += float(np.sum(-_LARGE * np.log2(_LARGE)))
    for _ in range(2):
        np.log2(_HUGE, out=_HUGE_OUT)
        np.multiply(_HUGE_OUT, _HUGE, out=_HUGE_OUT)
        acc -= float(np.sum(_HUGE_OUT))
    text = ",".join(f"{v:.6g}" for v in _LARGE[:3000])
    return acc + len(text)


def time_reference(repeats: int = 1) -> float:
    """Seconds the reference task takes now: the median of `repeats` runs."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference_task()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scaled(seconds: float, reference_s: float) -> float:
    return seconds * REFERENCE_S / reference_s


def pin_to_one_cpu() -> int:
    """Keep this process, and the processes it starts, on one CPU, so that
    a figure and the reference it is scaled by come from the same core."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu
