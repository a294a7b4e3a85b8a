"""A fixed pure-Python task that tells how fast the host runs right now.

The benchmark shares its cores with other work, and their speed drifts:
the same Python code runs anywhere between its best time and about 1.8
times that, in phases that last from a fraction of a second to minutes.
Runs a few minutes apart would differ by that much, whatever the seed.

So the benchmark times the yardstick just before and just after each
request and each set-up round, and reports their times at the reference
speed, at which the yardstick takes ``REF_S`` seconds:

    seconds at the reference speed = wall seconds * REF_S / yardstick seconds

where the yardstick seconds are the mean of the two timings around it.
A change to boxham that makes a request slower makes this figure slower
by the same share; a change in the host's speed moves both timings and
cancels.  The yardstick does what boxham does most -- breadth-first
search over dict adjacency lists, building and sorting tuples, joining
strings -- and is the benchmark's own code, so no change to boxham moves
it.  The collector is off while it runs, so the size of boxham's heap
does not move it either.
"""

from __future__ import annotations

import gc
import statistics
import time

# the yardstick's time at the reference speed, close to its time on a 2-vCPU
# host running Python 3.11 in a fast phase; only the scale of the figures
# rests on it
REF_S = 0.0004

SIDE = 17     # the yardstick searches a SIDE x SIDE grid
REPEATS = 3   # a timing is the median of this many runs of the task


class Yardstick:
    def __init__(self):
        n = SIDE
        self.adj = {v: [w for w in (v - n, v + n) if 0 <= w < n * n]
                    + [w for w in (v - 1, v + 1) if w // n == v // n and 0 <= w]
                    for v in range(n * n)}
        self.edges = sorted((u, w) for u in self.adj for w in self.adj[u])
        self.samples: list[float] = []
        self.time()  # the first call pays for warming up

    def _task(self):
        adj = self.adj
        for s in (0, SIDE * SIDE // 2 + SIDE // 3):
            seen = {s}
            queue = [s]
            parent = {}
            for u in queue:
                for w in adj[u]:
                    if w not in seen:
                        seen.add(w)
                        parent[w] = u
                        queue.append(w)
        flipped = sorted(((w, u) for u, w in self.edges), reverse=True)
        return len(flipped), " ".join(str(v) for v in queue)

    def time(self) -> float:
        """Seconds for the yardstick task, recorded in ``samples``.

        The median of REPEATS runs, so that neither an interrupt nor the
        caches a large request left cold move it.  The collector is off.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            runs = []
            for _ in range(REPEATS):
                start = time.perf_counter()
                self._task()
                runs.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        elapsed = statistics.median(runs)
        self.samples.append(elapsed)
        return elapsed

    def scale(self, before: float, after: float) -> float:
        """Factor from wall seconds between two timings to reference seconds."""
        return REF_S / ((before + after) / 2)

    def quartiles(self) -> list[float]:
        return statistics.quantiles(self.samples, n=4) if len(self.samples) > 1 else self.samples
