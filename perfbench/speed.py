"""Operation timing corrected for the machine's current speed.

On the shared host where this benchmark was defined, the machine switches
between a fast and a slow state (the same code takes up to twice as long)
for seconds to minutes at a time, and CPU time stretches with wall time, so
neither raw time is steady from run to run.  A probe of fixed code owned by
this benchmark (a matrix product and a ReLU over an array of the size the
deep verify net streams through) slows down with every workload (pass time
and probe time correlated at r = 0.77 to 0.85).
Each operation is timed between two probes and scaled by
REFERENCE_PROBE_S / (mean of the two probe times): its duration at the
reference speed.  A change to the program moves the raw and the normalized
time alike; a change of machine state moves only the raw time.
"""

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

# the probe's time in the host's fast state, so normalized ~ raw seconds there
REFERENCE_PROBE_S = 0.0016

_rng = np.random.default_rng(20240311)
_X = _rng.random((20_000, 8, 6))
_W = _rng.random((6, 6))


def probe_s(reps=15):
    """Median time of `reps` runs of a fixed matrix product, ReLU and sum."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        z = _X @ _W
        np.maximum(z, 0.0, out=z)
        z.sum()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


@dataclass
class OpTime:
    raw_s: float = 0.0
    factor: float = 1.0  # reference probe time over the probes around the operation

    @property
    def norm_s(self):
        return self.raw_s * self.factor


class Clock:
    """Times operations, probing the machine's speed between them."""

    def __init__(self):
        self._before = probe_s()

    @contextmanager
    def op(self):
        timing = OpTime()
        t0 = time.perf_counter()
        try:
            yield timing
        finally:
            timing.raw_s = time.perf_counter() - t0
            after = probe_s()
            timing.factor = REFERENCE_PROBE_S / ((self._before + after) / 2)
            self._before = after
