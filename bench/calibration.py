"""Machine-speed calibration of the benchmark's timings.

On a shared machine the same single-threaded Python code can run 60% slower
for minutes at a time, with no steal time and no other load visible inside
the machine.  Medians within a run cannot remove a slowdown that lasts the
whole run, so every timing is also divided by the speed of a fixed kernel,
sampled every ``EVERY_S`` seconds of wall time while a pass runs, also in
the middle of a long operation: a time is reported as it would read on a
machine where the kernel takes ``REFERENCE_S``, by the samples taken within
``WINDOW_S`` of the operation.  The kernel's own time is
taken out of the operation it interrupted.  Raw times are reported beside
the scaled ones.  The kernel is pure Python of the kind minhess spends its
time in (tuples as dict keys, small-integer arithmetic, Fractions) and
never calls minhess, so a change to the program does not move it.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.020
EVERY_S = 0.5  # wall seconds between samples within a pass
WINDOW_S = 1.0  # an operation is scaled by the samples this close to it


def kernel():
    table = {}
    acc = 0
    for i in range(16000):
        key = (i & 255, i >> 8, i % 7)
        table[key] = table.get(key, 0) + i
        acc += len(key)
    for i in range(1, 1500):
        acc += (Fraction(i, 12) + Fraction(5, i)).numerator
    return acc


class Calibrator:
    """Kernel samples taken during one pass (or between the set-up runs),
    and the scale they give the times measured there."""

    def __init__(self):
        self.samples = []
        self.spans = []  # (start, end) of each sample

    def sample(self, *_):
        # with the collector off, a sample taken in the middle of minhess
        # neither pays for nor triggers a collection of minhess's objects
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        if collecting:
            gc.enable()
        self.samples.append(end - start)
        self.spans.append((start, end))

    @contextlib.contextmanager
    def sampling(self):
        """Take a sample every ``EVERY_S`` seconds while the block runs."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def taken(self, since, start, end):
        """Seconds of ``[start, end]`` spent in samples ``since`` onwards."""
        return sum(max(0.0, min(e, end) - max(s, start)) for s, e in self.spans[since:])

    def scale(self):
        """REFERENCE_S over the mean sample: the factor for the whole pass."""
        return scale(statistics.fmean(self.samples))

    def local_scales(self, intervals):
        """For each (start, end), the factor from the mean of the samples
        taken within ``WINDOW_S`` of it, or of the whole pass if none was.

        The kernel's speed flips between fast and slow states within a
        second, so one factor for a pass mixes the states, and so does a
        median; samples near an operation see the state it ran in.  Over
        six passes of smoothness-sweep, the median pair time varied by 10%
        raw (coefficient of variation), 6% with the pass's factor and 3%
        with these; the 99th percentile by 3%, 3% and 3.5%.  Only the
        nearest sample on either side gave 3% and 5%: single samples are
        noisy, and the tail collects the operations they misjudge.
        """
        mids = [(start + end) / 2 for start, end in self.spans]
        whole = statistics.fmean(self.samples)
        factors = []
        for start, end in intervals:
            first = bisect.bisect_left(mids, start - WINDOW_S)
            near = self.samples[first : bisect.bisect_right(mids, end + WINDOW_S)]
            factors.append(scale(statistics.fmean(near) if near else whole))
        return factors


def scale(kernel_s):
    """The factor that makes a time read as where the kernel takes
    ``REFERENCE_S``."""
    return REFERENCE_S / kernel_s
