"""A fixed reference kernel, timed at regular intervals throughout a run.

Shared hosts change speed by 15-40% over tens of seconds (contention
from neighbours on the same cores, caches and memory), and that drift
moves every wall-clock figure of a run together. The benchmark therefore
times this kernel, which is part of the benchmark and never of the
package, every half second while a workload runs, and reports times in
nominal seconds: seconds measured, scaled by NOMINAL_S over the
kernel's median time in the same phase of the run. NOMINAL_S is a
constant (the kernel's time on an idle 2 GHz Xeon core), so it cancels
out of any comparison between two commits.

The kernel mixes the kinds of work dgnnrec does: it gathers rows from a
table larger than the L2 cache and sums small dense products per
segment, as message passing on a large graph does, and it makes many
tiny numpy calls, runs a tight Python loop and Python spread over much
code (json, regex, sorting), as a 14-node gradient check does.

Sampling runs from a SIGALRM handler, so it needs no hook in the code
being measured. ``clock`` excludes the time spent in the handler, so
operation times read as if the kernel had never run.
"""

from __future__ import annotations

import json
import re
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

NOMINAL_S = 0.036


def in_nominal_seconds(samples, refs) -> float:
    """Median of ``samples`` as on a machine where the kernel takes NOMINAL_S."""
    return statistics.median(samples) * NOMINAL_S / statistics.median(refs)


class Reference:
    """The kernel's data, its timings so far, and the time they took."""

    def __init__(self, interval_s: float = 0.5):
        self.interval_s = interval_s
        rng = np.random.default_rng(20230313)
        self.table = rng.normal(size=(30000, 16))
        self.rows = rng.integers(0, 30000, 30000)
        self.segments = np.arange(0, 30000, 5)
        self.transforms = rng.normal(size=(8, 16, 16)) * 0.1
        # Preallocated, so sampling leaves the allocator (and peak RSS) alone.
        self.gathered = np.empty((30000, 16))
        self.product = np.empty((30000, 16))
        self.acc = np.empty((30000, 16))
        self.sums = np.empty((self.segments.size, 16))
        self.small = rng.normal(size=(14, 4))
        self.small_w = rng.normal(size=(4, 4)) * 0.5
        self.rows_by_dim = [rng.normal(size=(14, d)) for d in (2, 4, 8)]
        # Small records: every object the kernel makes stays under 512 bytes,
        # in CPython's own pools, so sampling does not move where the
        # workload's large arrays land on the C heap.
        self.records = [{"k": f"k{i}", "v": [i, str(i) * 3], "x": i / 7} for i in range(60)]
        self.taken: list = []
        self.spent = 0.0
        self.tracer = None
        self._sampling_now = False

    def clock(self) -> float:
        """perf_counter minus the time spent timing the kernel."""
        while True:  # retry if a sample lands between the two reads
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:
                return now - spent

    def kernel(self) -> float:
        """Run the kernel once (about 40 ms); returns its duration."""
        started = time.perf_counter()
        np.take(self.table, self.rows, axis=0, out=self.gathered)
        self.acc.fill(0.0)
        for w in self.transforms:
            np.matmul(self.gathered, w, out=self.product)
            self.acc += self.product
        np.add.reduceat(self.acc, self.segments, axis=0, out=self.sums)
        x = self.small
        for _ in range(300):
            x = np.where(x >= 0.0, x, 0.2 * x) @ self.small_w + self.small
        total, seen = 0, {}
        for i in range(20000):
            total += (i * 7) % 13
            seen[i & 1023] = total
        for _ in range(4):
            for record in self.records:
                text = json.dumps(json.loads(json.dumps(record, sort_keys=True)))
                sorted(re.findall(r"\w+", text), key=lambda w: (len(w), w))
        for _ in range(20):
            for a in self.rows_by_dim:
                y = (a - a.mean(axis=1, keepdims=True)) / np.sqrt(a.var(axis=1, keepdims=True)
                                                                  + 1e-6)
                both = np.concatenate([y, a], axis=1)
                np.add.at(both, [0, 1, 1], 1.0)
                np.unique(np.einsum("nd,nd->n", y, a).round(1))
        return time.perf_counter() - started

    def _on_alarm(self, signum, frame) -> None:
        if self._sampling_now or (self.tracer is not None and self.tracer.busy):
            return  # mid-way through a sample or a span update; try at the next tick
        self._sampling_now = True
        entered = time.perf_counter()
        try:
            if self.tracer is None:
                self.taken.append(self.kernel())
            else:
                with self.tracer.span("bench.reference"):
                    self.taken.append(self.kernel())
        finally:
            self.spent += time.perf_counter() - entered
            self._sampling_now = False

    @contextmanager
    def sampling(self, tracer=None):
        """Time the kernel every ``interval_s`` seconds inside the block.

        Yields the list that receives this block's timings when the block
        ends. With a tracer, each timing is a ``bench.reference`` span, so
        it is not counted in the self time of the layer it interrupted.
        """
        first = len(self.taken)
        self.tracer = tracer
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        block: list = []
        try:
            self.taken.append(self.kernel())
            yield block
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self.tracer = None
            block.extend(self.taken[first:])
