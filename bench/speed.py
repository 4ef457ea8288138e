"""Machine-speed reference: rescale timings to a fixed host speed.

The benchmark runs on shared virtual machines whose speed drifts by up
to a factor of two over seconds to minutes (other tenants on the same
cores), far more than a useful regression bound. ``Reference`` times a
fixed routine that never touches ``tubescout``, a breadth-first search
over a constant grid with numpy scalar indexing and a ``deque``, the
same kind of interpreter work as the explorer and the sol simulator.
Reference passes are made between runs, taking ``REFERENCE_SHARE`` of
the phase's wall time. Each run's time is multiplied by
``REFERENCE_S / mean(nearest passes)``, the ``NEIGHBOURS`` passes made
just before it and just after it: seconds on a host where one reference
pass takes ``REFERENCE_S``. A change to the program leaves the reference
untouched, so it shows in full; a slow spell of the host slows both and
cancels.
"""

from __future__ import annotations

import statistics
import time
from collections import deque

import numpy as np

#: Seconds one reference pass takes on the 2-vCPU virtual machine where
#: the benchmark was defined (Python 3.11, numpy 2.4), in a quiet spell.
REFERENCE_S = 0.008
#: Share of a phase's wall time spent on reference passes.
REFERENCE_SHARE = 0.10
#: Passes on each side of a run that set its scale.
NEIGHBOURS = 8

_SIDE = 72
#: Pillars on every third row; every open cell is reachable from (0, 0).
_MASK = np.array([[not (r % 3 == 1 and (c * 5 + r) % 4 == 1)
                   for c in range(_SIDE)] for r in range(_SIDE)])


def reference_pass() -> int:
    """Breadth-first search over ``_MASK``; returns the farthest distance."""
    dist = np.full((_SIDE, _SIDE), -1, dtype=np.int64)
    dist[0, 0] = 0
    queue = deque([(0, 0)])
    while queue:
        r, c = queue.popleft()
        d = dist[r, c] + 1
        for rr, cc in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
            if (0 <= rr < _SIDE and 0 <= cc < _SIDE and _MASK[rr, cc]
                    and dist[rr, cc] < 0):
                dist[rr, cc] = d
                queue.append((rr, cc))
    return int(dist.max())


class Reference:
    """Reference passes interleaved with the runs of one phase."""

    def __init__(self):
        self.samples: list = []
        self.marks: list = []
        self.spent_s = 0.0
        self.started = time.perf_counter()

    def sample(self) -> None:
        start = time.perf_counter()
        reference_pass()
        self.samples.append(time.perf_counter() - start)
        self.spent_s += self.samples[-1]

    def before_run(self) -> None:
        """Sample until the reference has had its share of the phase,
        then mark where the next run falls among the samples."""
        while not self.samples or self.spent_s < REFERENCE_SHARE * (
                time.perf_counter() - self.started):
            self.sample()
        self.marks.append(len(self.samples))

    def scaled(self, durations: list) -> list:
        """Each run's seconds at the reference host's speed; needs one
        ``before_run`` per run and a ``sample`` after the last."""
        out = []
        for mark, seconds in zip(self.marks, durations):
            near = self.samples[max(0, mark - NEIGHBOURS):mark + NEIGHBOURS]
            out.append(seconds * REFERENCE_S / statistics.fmean(near))
        return out

    def mean_s(self) -> float:
        return statistics.fmean(self.samples)
