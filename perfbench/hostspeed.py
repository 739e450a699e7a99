"""Host-speed calibration: a fixed job timed after each measured call.

On a shared host the same code runs up to 1.5x slower for minutes at a
time.  The calibration job is the benchmark's own code, independent of
bcfusion: a short tape-like loop of small numpy ops with Python bookkeeping,
the mix that dominates toy-scale training.  Like the program's calls (BLAS
runs on one thread, see run.py) it runs on one CPU; a job that ran GEMMs on
two BLAS threads took up to 40x longer whenever the other CPU was busy.

A call's normalised time is its wall time divided by the median time of
three jobs (the one before the call, the one right after it and the next)
and multiplied by the job's nominal time: seconds at a fixed host speed.  A
change to the program moves the call and not the jobs, and shows in full; a
slow spell of the host moves both, and cancels.  Job times flip between two
levels every few calls, so the nearest jobs track the host better than the
median of the whole run does.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# Seconds one calibration job takes on the 2-vCPU reference host (about its
# median there); the scale of every normalised time.
NOMINAL_S = 0.010

_rng = np.random.default_rng(0x5EED)
_X = _rng.normal(size=(14, 8))
_W = _rng.normal(size=(8, 8)) / 3.0


def job() -> float:
    """The fixed calibration work; returns a value so that nothing is optimised away."""
    tape = []
    h = _X
    for _ in range(500):
        a = h @ _W
        tape.append((a, lambda g, a=a: (g * (a > 0.0)) @ _W.T))
        b = np.maximum(a, 0.0) + 0.1 * a
        h = b / (1.0 + np.abs(b).max())
    g = np.ones_like(h)
    for _, back in reversed(tape):
        g = back(g)
        g = g / (1.0 + np.abs(g).max())
    return float(g.sum())


@dataclass
class Timing:
    """Wall seconds of one call and the index of the calibration job that followed it."""

    wall: float
    job: int


class HostClock:
    """Times calls in wall seconds and runs a calibration job after each.

    In traced runs each job is a ``bench.calibrate`` span, so that the
    per-layer shares can leave it out.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.jobs: list[float] = []
        job()  # first use pays for lazy BLAS and allocator set-up

    def measure(self, fn, *args):
        """(result, Timing) of ``fn(*args)``."""
        t0 = perf_counter()
        result = fn(*args)
        wall = perf_counter() - t0
        with self.tracer.span("bench.calibrate"):
            t0 = perf_counter()
            job()
            self.jobs.append(perf_counter() - t0)
        return result, Timing(wall, len(self.jobs) - 1)

    def normalised(self, t: Timing) -> float:
        """The call's seconds at the nominal host speed."""
        around = self.jobs[max(0, t.job - 1):t.job + 2]
        return t.wall * NOMINAL_S / statistics.median(around)
