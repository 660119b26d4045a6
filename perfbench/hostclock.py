"""Host-speed normalisation: timings in seconds at a reference speed.

The hosts this benchmark runs on share their cores with other work, and
their speed drifts: a fixed piece of pure-Python work can take 1.7 times
as long for seconds or minutes at a time.  CPU time tracks wall time
through it, so neither CPU time nor longer runs remove the drift, and a
probe timed only before and after a 15-second call misses the swings
inside it.  What removes most of it is to time a fixed *reference work*
(``reference``) on the same core as the program, at the same moments,
and scale each timing by how fast the reference ran around it::

    normalised = measured * REFERENCE_S / (mean reference time around it)

A normalised figure is the time the operation would take on a host that
runs the reference work in ``REFERENCE_S`` seconds.  The reference work
is frozen code of the benchmark, never the program's, so every change to
the program shows in full.  It mixes what the program spends its time
on: shortest paths over dict graphs with a heap, frozenset keys counted
in a dict, small numpy array operations, tuple sorting, and the JSON
encoding, decoding and hashing of cached shards and content keys.  (A
reference of the first four alone tracked cold replays as well but
cached requests worse: those slow down more than pure Python on a busy
host.)

The reference is sampled in one of two ways:

* ``between`` operations, on the calling thread, at most every
  ``BETWEEN_GAP_S`` seconds: for short operations (set-up calls,
  requests), timed in wall time;
* ``during`` one long call, from a sampler thread every
  ``SAMPLER_GAP_S`` seconds: the call is then timed in its own thread's
  CPU time, which leaves out the sampler's share of the core.

``pin`` keeps the whole process (program, daemon threads, sampler) on
one core, so the reference is timed where the program runs.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import hashlib
import heapq
import json
import os
import random
import statistics
import threading
import time
from typing import Iterator

import numpy as np

#: Seconds between reference samples taken between operations.  Slow
#: stretches of a few tens of milliseconds are common on a shared host,
#: and a cached request takes 2-25 ms.
BETWEEN_GAP_S = 0.03
#: Seconds between the sampler thread's samples beside a long call
#: (each takes the core from the call for one reference work).
SAMPLER_GAP_S = 0.1
#: Reference-work seconds of the reference speed (about the median on
#: the 2-core Xeon host the benchmark was tuned on).
REFERENCE_S = 0.005

_NODES = 300
_rng = random.Random(20170605)
_GRAPH: dict[int, dict[int, float]] = {node: {} for node in range(_NODES)}
for _node in range(_NODES):
    for _other in _rng.sample(range(_NODES), 6):
        if _other != _node:
            _GRAPH[_node][_other] = _GRAPH[_other][_node] = _rng.random()
_ARRAY = np.random.default_rng(20170605).random((64, 256))
_DOCUMENT = {
    "rows": [
        {"index": index, "values": [index * 0.5] * 8, "name": str(index)}
        for index in range(200)
    ]
}


def _shortest_paths(source: int) -> dict[int, int]:
    distance = {source: 0.0}
    previous: dict[int, int] = {}
    heap = [(0.0, source)]
    done: set[int] = set()
    while heap:
        cost, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        for other, weight in _GRAPH[node].items():
            total = cost + weight
            if total < distance.get(other, float("inf")):
                distance[other] = total
                previous[other] = node
                heapq.heappush(heap, (total, other))
    return previous


def reference() -> int:
    """The fixed reference work (about ``REFERENCE_S`` seconds)."""
    counts: dict[frozenset, int] = {}
    tree = _shortest_paths(0)
    for shift in range(4):
        key = frozenset(
            (node, parent) for node, parent in tree.items()
            if (node + parent + shift) % 3
        )
        counts[key] = counts.get(key, 0) + 1
    for _ in range(5):
        mask = _ARRAY[:, :128] > 0.5
        (_ARRAY * mask[:, :1]).sum(axis=1)
        np.outer(_ARRAY[0], _ARRAY[1]).sum()
    rows = sorted((value % 17, -value, str(value)) for value in range(500))
    for _ in range(3):
        text = json.dumps(_DOCUMENT, sort_keys=True)
        hashlib.sha256(text.encode("utf-8")).hexdigest()
        json.loads(text)
    return len(counts) + len(rows)


def pin() -> None:
    """Keep this process, and every thread it starts, on one core."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class HostClock:
    """Reference samples of one process, and the scale they give."""

    def __init__(self) -> None:
        #: (monotonic start, reference seconds), in time order.
        self.samples: list[tuple[float, float]] = []
        self._sampler_running = False

    def sample(self) -> None:
        # No collection inside the reference: its cost would depend on
        # the size of the program's heap.
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.monotonic()
            cpu = time.thread_time()
            reference()
            self.samples.append((start, time.thread_time() - cpu))
        finally:
            if enabled:
                gc.enable()

    def between(self) -> None:
        """Sample, unless the last sample is less than ``BETWEEN_GAP_S``
        old or the sampler thread is running."""
        if self._sampler_running:
            return
        if not self.samples or time.monotonic() - self.samples[-1][0] >= BETWEEN_GAP_S:
            self.sample()

    @contextlib.contextmanager
    def during(self) -> Iterator[None]:
        """Sample every ``SAMPLER_GAP_S`` seconds from another thread."""
        stop = threading.Event()

        def sampler() -> None:
            while not stop.wait(SAMPLER_GAP_S):
                self.sample()

        self.sample()
        thread = threading.Thread(target=sampler, name="hostclock", daemon=True)
        self._sampler_running = True
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()
            self._sampler_running = False
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the mean reference time from the last
        sample before ``start`` to the first after ``end``."""
        starts = [when for when, _seconds in self.samples]
        low = max(bisect.bisect_left(starts, start) - 1, 0)
        high = bisect.bisect_right(starts, end) + 1
        window = self.samples[low:high]
        return REFERENCE_S / statistics.fmean(seconds for _when, seconds in window)

    def median(self) -> float:
        return statistics.median(seconds for _when, seconds in self.samples)
