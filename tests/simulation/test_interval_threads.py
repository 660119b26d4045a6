"""Thread-safety of the probability memo under concurrent hammering.

The serve daemon shares one :class:`_ProbabilityCache` (inside a warm
shard context) across concurrently executing requests, so lookups,
inserts, LRU evictions, and counter updates race by design.  These
tests hammer one cache from many threads and assert two things: the
results stay bitwise identical to a single-threaded reference, and the
telemetry books stay balanced (no lost or double-counted updates, no
byte-accounting drift).
"""

from __future__ import annotations

import threading

from repro.core.dgraph import DisseminationGraph
from repro.core.graph import Topology
from repro.netmodel.conditions import LinkState
from repro.simulation.interval import _ProbabilityCache

THREADS = 8
ROUNDS = 40


def _ladder_topology(lanes: int = THREADS) -> Topology:
    topology = Topology()
    for lane in range(lanes):
        a, b, c = f"A{lane}", f"B{lane}", f"C{lane}"
        for node in (a, b, c):
            topology.add_node(node)
        topology.add_link(a, b, 5.0)
        topology.add_link(b, c, 5.0)
    return topology.freeze()


def _hammer(cache: _ProbabilityCache, topology: Topology, lane: int, out: list):
    graph = DisseminationGraph.from_path([f"A{lane}", f"B{lane}", f"C{lane}"])
    results = []
    for step in range(1, ROUNDS + 1):
        # A small rotating set of loss values: plenty of hits, plenty of
        # misses, and (under a byte cap) plenty of evictions.
        degraded = {(f"A{lane}", f"B{lane}"): LinkState((step % 5 + 1) / 10.0)}
        probs = cache.probabilities(topology, graph, degraded, f"s/f{lane}")
        results.append((probs.on_time.hex(), probs.eventually.hex()))
    out[lane] = results


class TestConcurrentProbabilityCache:
    def test_results_bitwise_match_serial_reference(self):
        topology = _ladder_topology()
        shared = _ProbabilityCache(deadline_ms=15.0, max_lossy_edges=20)
        out: list = [None] * THREADS
        threads = [
            threading.Thread(target=_hammer, args=(shared, topology, lane, out))
            for lane in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Serial reference: a fresh cache per lane (no sharing at all).
        for lane in range(THREADS):
            reference: list = [None] * (lane + 1)
            _hammer(
                _ProbabilityCache(deadline_ms=15.0, max_lossy_edges=20),
                topology,
                lane,
                reference,
            )
            assert out[lane] == reference[lane]

    def test_counters_balance_under_contention(self):
        topology = _ladder_topology()
        shared = _ProbabilityCache(deadline_ms=15.0, max_lossy_edges=20)
        out: list = [None] * THREADS
        threads = [
            threading.Thread(target=_hammer, args=(shared, topology, lane, out))
            for lane in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        counters = shared.counters()
        # Every lookup is either a hit or a miss; none may be lost.
        assert counters["hits"] + counters["misses"] == THREADS * ROUNDS
        # All lanes are congruent under canonicalisation: at most 5
        # distinct entries exist (5 loss values x 1 canonical shape), so
        # cross-thread sharing must have happened.
        assert counters["misses"] <= 5 * THREADS  # duplicate races at worst
        assert counters["hits"] > 0

    def test_byte_accounting_survives_concurrent_eviction(self):
        topology = _ladder_topology()
        shared = _ProbabilityCache(
            deadline_ms=15.0, max_lossy_edges=20, max_bytes=600
        )
        out: list = [None] * THREADS
        threads = [
            threading.Thread(target=_hammer, args=(shared, topology, lane, out))
            for lane in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert shared.evicted > 0
        assert 0 <= shared._bytes <= 600
        # The tracked footprint must equal the sum of resident entries.
        resident = sum(cost for _result, _owner, cost in shared._entries.values())
        assert shared._bytes == resident
