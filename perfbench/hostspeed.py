"""Host-speed reference: a fixed loop timed between the program's operations.

The host's speed drifts: the same work runs up to ~1.8x slower for
stretches from seconds to minutes, the two CPUs are not equally fast,
and a stretch can outlast a whole run.  So the benchmark times a fixed
piece of pure-Python work, :meth:`Reference.sample`, next to the program
— right after each in-process operation, on the same thread; in
``serve-mixed``, in each client thread after each job — and scales a
pass's timings by how slow the reference ran during that pass::

    slowness = median(reference times in the pass) / NOMINAL_MS
    time  reported = time measured / slowness
    rate  reported = rate measured * slowness

A reported time is thus the time on a host where the reference takes
``NOMINAL_MS``.  The reference does not run any program code, so a
change to the program moves the reported figures and not the scale.

The work is a pointer chase through a shuffled list of ``SIZE`` ints
that form one cycle; each sample goes on from where the last one
stopped, so it always reaches entries that are not in the cache.  The
list and its int objects take ~19 MB, more than the caches hold, so the
chase waits on memory the way the program's object-heavy code does; in
trials it tracked the program's slow stretches more closely than loops
that stay in the cache.  The chase allocates nothing, so garbage
collection never runs inside it.
"""

from __future__ import annotations

import random
import resource
import statistics
import time

#: Entries of the chased permutation.
SIZE = 1 << 19

#: Steps of one sample (~6 ms).
STEPS = 20000

#: Reference time of one sample on the scale all timings are reported in
#: (about its median on an unloaded 2-CPU Xeon host).
NOMINAL_MS = 6.0

#: Samples taken after an operation: one, plus one for every this many
#: milliseconds the operation took, so a pass of a few long operations
#: gets about as many samples as one of many short ones.
MS_PER_SAMPLE = 100.0


def _rss_kb() -> int:
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * resource.getpagesize() // 1024


class Reference:
    """The chased permutation and the times of the samples taken so far."""

    def __init__(self) -> None:
        before = _rss_kb()
        order = list(range(SIZE))
        # Sattolo's shuffle: a single cycle through every entry
        rng = random.Random(0)
        for i in range(SIZE - 1, 0, -1):
            j = rng.randrange(i)
            order[i], order[j] = order[j], order[i]
        self.chain = order
        self.at = 0
        #: Resident memory the permutation takes (kept out of peak RSS).
        self.rss_kb = max(0, _rss_kb() - before)
        self.samples: list[float] = []

    def sample(self) -> None:
        """Time one chase of ``STEPS`` steps."""
        chain = self.chain
        x = self.at
        t0 = time.perf_counter()
        for _ in range(STEPS):
            x = chain[x]
        self.samples.append((time.perf_counter() - t0) * 1e3)
        self.at = x

    def after_op(self, op_seconds: float) -> None:
        """Sample after an operation that took ``op_seconds``."""
        for _ in range(1 + int(op_seconds * 1e3 / MS_PER_SAMPLE)):
            self.sample()

    def take(self) -> float:
        """The slowness of the samples since the last call (1.0 without
        samples), and forget them."""
        samples, self.samples = self.samples, []
        return statistics.median(samples) / NOMINAL_MS if samples else 1.0
