"""Machine-speed gauge: scales measured times to a reference speed.

On a shared virtual machine the speed at which Python runs was seen to
drift by 30 to 60 percent, within seconds and over minutes, with process
CPU time drifting along with wall time (so the drift is not preemption,
which CPU time would hide).  A library that did not change then reads as
faster or slower from run to run.

The gauge times a fixed kernel that touches no library code: five
breadth-first searches over a seeded random graph of 2000 vertices, built
once, with no allocation beyond the frontier lists, best of three.  It
runs between library calls, never inside a timed one, at most every
``EVERY_S`` seconds, and twice right after any call that took longer.  A
library call's time is multiplied by
``factor = REFERENCE_S / mean(last WINDOW kernel times)``: the time the call
would have taken at the speed at which the kernel takes REFERENCE_S.  A
change to the library cannot move the kernel, so it moves the scaled times
in full.
"""

from __future__ import annotations

import math
import random
import statistics
import time


class SpeedGauge:
    REFERENCE_S = 0.0025
    EVERY_S = 0.25
    WINDOW = 4
    VERTICES = 2000

    def __init__(self):
        rng = random.Random(7)
        n = self.VERTICES
        self._adj = [tuple(rng.randrange(n) for _ in range(4)) for _ in range(n)]
        self._dist = [-1] * n
        self.samples: list[float] = []
        self.factor = 1.0
        self._last = -math.inf

    def _kernel(self):
        adj, dist = self._adj, self._dist
        for _ in range(5):
            for v in range(len(dist)):
                dist[v] = -1
            dist[0] = 0
            frontier = [0]
            while frontier:
                nxt = []
                for u in frontier:
                    for w in adj[u]:
                        if dist[w] < 0:
                            dist[w] = dist[u] + 1
                            nxt.append(w)
                frontier = nxt

    def sample(self):
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            self._kernel()
            best = min(best, time.perf_counter() - t0)
        self.samples.append(best)
        self.factor = self.REFERENCE_S / statistics.mean(self.samples[-self.WINDOW:])
        self._last = time.perf_counter()

    def tick(self):
        """Take a sample if the last one is older than EVERY_S."""
        if time.perf_counter() - self._last >= self.EVERY_S:
            self.sample()

    def factor_after(self, dt):
        """Factor for a call of ``dt`` seconds that has just ended.  A call
        longer than EVERY_S may have seen the speed drift, so two fresh
        samples are taken: the window then holds two samples from before
        the call and two from after it."""
        if dt >= self.EVERY_S:
            self.sample()
            self.sample()
        return self.factor
