"""Machine-speed calibration for timings on a shared, noisy box.

On the 2-core box the benchmark was written on, the speed of the same
CPU-bound job drifted by 20-30 % within minutes, and process CPU time
drifted with it, so neither wall nor CPU time of one run is steady.  A
fixed kernel that does what nff's hot loops do (small numpy arrays,
complex exponentials, Python call overhead) slows down with them: timed
in the same process, interleaved with the job, the ratio of job time to
kernel time moved about 5 % where the raw times moved 21 %.

``Sampler`` runs the kernel (about 2 ms) from a timer signal every
``INTERVAL_S`` during a job, and its time is taken out of the job's.
The kernel's time was bimodal (about 1.7 ms or 2.6 ms, in spells of
seconds), so each operation is scaled by the kernel's speed relative to
``NOMINAL_KERNEL_S``, averaged over the samples within ``WINDOW_S`` of
it: averaging ``nominal / sample`` weights each spell by its length.
Scaled times read as seconds on the reference box in its fast spells.
Changing the kernel or the nominal constant changes every reported time.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

#: Kernel time on the reference box (2-core x86, numpy 2.4) in a fast spell.
NOMINAL_KERNEL_S = 0.0017
INTERVAL_S = 0.1
WINDOW_S = 0.5
EDGE_SAMPLES = 5
_ITERATIONS = 200
_X = np.linspace(0.1, 10.0, 64)


def kernel() -> float:
    """Run the calibration kernel once; its duration in seconds."""
    t0 = perf_counter()
    for i in range(_ITERATIONS):
        d = np.sqrt(_X * _X + i)
        np.max(np.abs(np.exp(-1j * d) / d))
    return perf_counter() - t0


def spot_speed() -> float:
    """Kernel speed relative to nominal now, from ``EDGE_SAMPLES`` samples."""
    return statistics.fmean(NOMINAL_KERNEL_S / kernel() for _ in range(EDGE_SAMPLES))


class Sampler:
    """Kernel samples during a job, from a timer signal, or around it.

    ``busy_s`` is the kernel time spent during the job so far; subtract
    its change over an interval from that interval's duration.  With
    ``during=False`` (a traced job, whose spans must not contain kernel
    time) only ``EDGE_SAMPLES`` before and after the job are taken.
    """

    def __init__(self, during: bool = True) -> None:
        self.during = during
        self.samples: list[float] = []
        self.times: list[float] = []
        self.busy_s = 0.0
        self._previous = None

    def _sample(self, *_args) -> None:
        t0 = perf_counter()
        self.times.append(t0)
        self.samples.append(kernel())
        self.busy_s += perf_counter() - t0

    def __enter__(self) -> "Sampler":
        if self.during:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        else:
            for _ in range(EDGE_SAMPLES):
                self._sample()
            self.busy_s = 0.0
        return self

    def __exit__(self, *exc) -> None:
        if self.during:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        busy = self.busy_s
        while len(self.samples) < 2 * EDGE_SAMPLES:  # short or traced jobs
            self._sample()
        self.busy_s = busy

    def relative_speed(self, start: float | None = None, end: float | None = None) -> float:
        """Mean of nominal / sample near ``[start, end]`` (all samples by
        default, else the two nearest if none lie within ``WINDOW_S``);
        below 1 on a slow machine.  Multiply a time by it to scale it."""
        picked = self.samples
        if start is not None:
            t = np.asarray(self.times)
            near = np.nonzero((t >= start - WINDOW_S) & (t <= end + WINDOW_S))[0]
            if near.size == 0:
                near = np.argsort(np.abs(t - 0.5 * (start + end)))[:2]
            picked = [self.samples[i] for i in near]
        return statistics.fmean(NOMINAL_KERNEL_S / k for k in picked)
