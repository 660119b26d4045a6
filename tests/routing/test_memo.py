"""The routing memo: memoized decisions equal fresh ones, exactly.

Every (flow, scheme) decision timeline built through the shared memo --
cold, warm, across flows and schemes, from two threads at once -- must
equal the timeline built with every routing primitive computed afresh
(``memo._bypass``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.core.graph import Topology
from repro.netmodel.conditions import LinkState
from repro.netmodel.scenarios import WEEK_S, generate_timeline
from repro.netmodel.presets import preset_scenario
from repro.netmodel.topology import FlowSpec, ServiceSpec
from repro.routing import (
    STANDARD_SCHEME_NAMES,
    DynamicSinglePathPolicy,
    DynamicTwoDisjointPolicy,
    make_policy,
    memo,
)
from repro.routing.base import timely_edge_latencies
from repro.scenarios import compile_family
from repro.simulation.timeline import build_decision_timeline
from repro.topogen import resolve_workload

NON_FLOODING = tuple(name for name in STANDARD_SCHEME_NAMES if name != "flooding")


def _timelines(topology, timeline, flows, schemes, service=ServiceSpec()):
    """``(flow, scheme) -> [(start, end, graph name, sorted edges)]``."""
    result = {}
    for flow in flows:
        for scheme in schemes:
            spans = build_decision_timeline(
                topology, timeline, flow, service, make_policy(scheme)
            )
            result[(flow.name, scheme)] = [
                (span.start_s, span.end_s, span.graph.name, span.graph.sorted_edges())
                for span in spans
            ]
    return result


def _assert_memo_matches_fresh(topology, timeline, flows, schemes):
    with memo._bypass():
        fresh = _timelines(topology, timeline, flows, schemes)
    memo.clear()
    before = memo.counters()
    cold = _timelines(topology, timeline, flows, schemes)
    warm = _timelines(topology, timeline, flows, schemes)
    after = memo.counters()
    assert cold == fresh
    assert warm == fresh
    assert after["misses"] > before["misses"]
    assert after["hits"] > before["hits"]


def _preset_timeline(topology, weeks, seed=7):
    _events, timeline = generate_timeline(
        topology, preset_scenario("default", duration_s=weeks * WEEK_S), seed=seed
    )
    return timeline


class TestDifferential:
    def test_reference_overlay_six_schemes(self):
        workload = resolve_workload()
        timeline = _preset_timeline(workload.topology, 0.05)
        _assert_memo_matches_fresh(
            workload.topology, timeline, workload.flows, STANDARD_SCHEME_NAMES
        )

    def test_isp_hier_fifty(self):
        workload = resolve_workload("isp-hier", 50, 0)
        timeline = _preset_timeline(workload.topology, 0.05)
        _assert_memo_matches_fresh(
            workload.topology, timeline, workload.flows, STANDARD_SCHEME_NAMES
        )

    @pytest.mark.parametrize("family", ["congestion-storm", "srlg-outage"])
    def test_scenario_family(self, family):
        workload = resolve_workload()
        compiled = compile_family(
            workload.topology, family, seed=3, duration_s=0.05 * WEEK_S
        )
        _assert_memo_matches_fresh(
            workload.topology,
            compiled.timeline(),
            workload.flows[:6],
            NON_FLOODING,
        )


def _ladder() -> Topology:
    """S reaches T only through A or B; both source links can be lossy."""
    topology = Topology("ladder")
    for node in ("S", "A", "B", "T"):
        topology.add_node(node)
    topology.add_link("S", "A", 10.0)
    topology.add_link("S", "B", 12.0)
    topology.add_link("A", "T", 10.0)
    topology.add_link("B", "T", 10.0)
    return topology.freeze()


class TestLossRatesAreInThePenalizedKey:
    """Two views alike in degraded set and inflations, unlike in loss.

    Both source links are degraded, so avoiding them disconnects the
    flow and the penalized fallback picks the less lossy one -- which the
    degraded set alone cannot tell.
    """

    FLOW = FlowSpec("S", "T")

    def views(self):
        a_worse = {
            ("S", "A"): LinkState(loss_rate=0.9),
            ("S", "B"): LinkState(loss_rate=0.3),
        }
        b_worse = {
            ("S", "A"): LinkState(loss_rate=0.3),
            ("S", "B"): LinkState(loss_rate=0.9),
        }
        return a_worse, b_worse

    @pytest.mark.parametrize(
        "policy_type", [DynamicSinglePathPolicy, DynamicTwoDisjointPolicy]
    )
    def test_each_view_gets_its_own_fallback(self, policy_type):
        topology = _ladder()
        a_worse, b_worse = self.views()

        def decide(policy):
            policy.attach(topology, self.FLOW, ServiceSpec())
            first = policy.update(0.0, a_worse).sorted_edges()
            policy.update(1.0, {})  # a clean view in between
            second = policy.update(2.0, b_worse).sorted_edges()
            return first, second

        with memo._bypass():
            fresh = decide(policy_type())
        memo.clear()
        memoized = decide(policy_type())
        assert memoized == fresh
        if policy_type is DynamicSinglePathPolicy:
            assert list(memoized[0]) == sorted([("S", "B"), ("B", "T")])
            assert list(memoized[1]) == sorted([("S", "A"), ("A", "T")])


class TestConcurrency:
    def test_two_threads_equal_serial(self):
        workload = resolve_workload()
        timeline = _preset_timeline(workload.topology, 0.03)
        args = (workload.topology, timeline, workload.flows[:8], STANDARD_SCHEME_NAMES)
        with memo._bypass():
            serial = _timelines(*args)
        memo.clear()
        results: list = [None, None]
        errors: list = []

        def replay(slot):
            try:
                results[slot] = _timelines(*args)
            except Exception as error:  # pragma: no cover - reported below
                errors.append(error)

        threads = [threading.Thread(target=replay, args=(slot,)) for slot in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert results[0] == serial
        assert results[1] == serial


_EVICTION_SCRIPT = """
import json
from repro.netmodel.presets import preset_scenario
from repro.netmodel.scenarios import WEEK_S, generate_timeline
from repro.netmodel.topology import ServiceSpec
from repro.routing import make_policy, memo
from repro.simulation.timeline import build_decision_timeline
from repro.topogen import resolve_workload

memo.MAX_ENTRIES = 8
workload = resolve_workload()
_events, timeline = generate_timeline(
    workload.topology, preset_scenario("default", duration_s=0.02 * WEEK_S), seed=7
)
for flow in workload.flows[:4]:
    for scheme in ("dynamic-single", "dynamic-two-disjoint", "targeted"):
        build_decision_timeline(
            workload.topology, timeline, flow, ServiceSpec(), make_policy(scheme)
        )
print(json.dumps(memo.counters()))
"""


class TestBoundedMemo:
    def test_eviction_is_deterministic_across_hash_seeds(self):
        src = Path(__file__).resolve().parents[2] / "src"

        def counters(hash_seed):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(src)}
            completed = subprocess.run(
                [sys.executable, "-c", _EVICTION_SCRIPT],
                env=env,
                capture_output=True,
                text=True,
                check=True,
                timeout=300,
            )
            return json.loads(completed.stdout.strip().splitlines()[-1])

        first, second = counters("1"), counters("2")
        assert first == second
        assert first["evicted"] > 0
        assert first["hits"] > 0

    def test_cap_holds_and_evictions_count(self, monkeypatch):
        monkeypatch.setattr(memo, "MAX_ENTRIES", 2)
        memo.clear()
        before = memo.counters()
        for value in range(5):
            assert memo.cached(("probe", value), lambda v=value: v * 10) == value * 10
        after = memo.counters()
        assert len(memo._entries) == 2
        assert after["evicted"] - before["evicted"] == 3
        assert after["misses"] - before["misses"] == 5
        # The two most recent entries are resident; the oldest were evicted.
        assert memo.cached(("probe", 4), lambda: -1) == 40
        assert memo.cached(("probe", 0), lambda: -1) == -1
        memo.clear()

    def test_cached_latency_map_is_read_only(self, reference_topology):
        memo.clear()
        through = timely_edge_latencies(reference_topology, {}, "NYC", "SJC")
        edge = next(iter(through))
        with pytest.raises(TypeError):
            through[edge] = 0.0  # type: ignore[index]
        with pytest.raises(TypeError):
            del through[edge]  # type: ignore[attr-defined]
        again = timely_edge_latencies(reference_topology, {}, "NYC", "SJC")
        assert again is through
        with memo._bypass():
            fresh = timely_edge_latencies(reference_topology, {}, "NYC", "SJC")
        assert dict(fresh) == dict(through)
        assert list(fresh) == list(through)

    def test_paths_are_copied_out(self, reference_topology):
        memo.clear()
        policy = DynamicTwoDisjointPolicy().attach(
            reference_topology, FlowSpec("NYC", "SJC"), ServiceSpec()
        )
        degraded = {("CHI", "DEN"): LinkState(loss_rate=0.5)}
        first = policy.update(0.0, degraded)
        from repro.core.algorithms import disjoint_paths
        from repro.routing.base import observed_adjacency

        paths = memo.disjoint(
            disjoint_paths, observed_adjacency, reference_topology, degraded,
            "NYC", "SJC", 2,
            exclude=memo.edge_mask(reference_topology, degraded),
        )
        paths[0].append("mutated")
        again = memo.disjoint(
            disjoint_paths, observed_adjacency, reference_topology, degraded,
            "NYC", "SJC", 2,
            exclude=memo.edge_mask(reference_topology, degraded),
        )
        assert "mutated" not in again[0]
        assert sorted(first.edges) == sorted(
            {(u, v) for path in again for u, v in zip(path, path[1:])}
        )
