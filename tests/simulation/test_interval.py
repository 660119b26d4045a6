"""The analytic interval replay engine."""

from __future__ import annotations

import pytest

from repro.core.dgraph import DisseminationGraph
from repro.core.graph import Topology
from repro.netmodel.conditions import ConditionTimeline, Contribution, LinkState
from repro.netmodel.topology import FlowSpec, ServiceSpec
from repro.routing.registry import make_policy
from repro.simulation.interval import (
    PROB_CACHE_MAX_BYTES_ENV,
    PROB_CANONICAL_MAX_ENTRIES_ENV,
    _ProbabilityCache,
    default_prob_cache_max_bytes,
    default_prob_canonical_max_entries,
    replay_flow,
    run_replay,
)
from repro.simulation.results import ReplayConfig
from repro.simulation.timeline import (
    decision_boundaries,
    observed_views_with_deltas,
)

FLOW = FlowSpec("S", "T")
SERVICE = ServiceSpec(deadline_ms=15.0, send_interval_ms=10.0, rtt_budget_ms=30.0)


def tl(diamond, *contributions, duration=100.0):
    return ConditionTimeline(diamond, duration, contributions)


class TestReplayFlow:
    def test_clean_trace_zero_unavailability(self, diamond):
        stats = replay_flow(
            diamond,
            tl(diamond),
            FLOW,
            SERVICE,
            make_policy("static-single"),
        )
        assert stats.unavailable_s == 0.0
        assert stats.duration_s == pytest.approx(100.0)
        assert stats.average_cost_messages == 2  # S->A->T

    def test_hand_computed_blackout(self, diamond):
        """10 s of 100% loss on S->A: static single loses exactly 10 s."""
        timeline = tl(
            diamond, Contribution(("S", "A"), 40.0, 50.0, LinkState(loss_rate=1.0))
        )
        stats = replay_flow(
            diamond, timeline, FLOW, SERVICE, make_policy("static-single")
        )
        assert stats.unavailable_s == pytest.approx(10.0)
        assert stats.lost_s == pytest.approx(10.0)
        assert stats.late_s == 0.0

    def test_hand_computed_partial_loss(self, diamond):
        timeline = tl(
            diamond, Contribution(("S", "A"), 40.0, 50.0, LinkState(loss_rate=0.3))
        )
        stats = replay_flow(
            diamond, timeline, FLOW, SERVICE, make_policy("static-single")
        )
        assert stats.unavailable_s == pytest.approx(3.0)

    def test_dynamic_single_loses_only_detection_delay(self, diamond):
        timeline = tl(
            diamond, Contribution(("S", "A"), 40.0, 50.0, LinkState(loss_rate=1.0))
        )
        stats = replay_flow(
            diamond,
            timeline,
            FLOW,
            SERVICE,
            make_policy("dynamic-single"),
            ReplayConfig(detection_delay_s=2.0),
        )
        # Blind for exactly the detection delay, then routes via B.
        assert stats.unavailable_s == pytest.approx(2.0)

    def test_two_disjoint_covers_single_link(self, diamond):
        timeline = tl(
            diamond, Contribution(("S", "A"), 40.0, 50.0, LinkState(loss_rate=1.0))
        )
        stats = replay_flow(
            diamond, timeline, FLOW, SERVICE, make_policy("static-two-disjoint")
        )
        assert stats.unavailable_s == 0.0

    def test_flooding_is_lower_bound(self, diamond):
        timeline = tl(
            diamond,
            Contribution(("S", "A"), 40.0, 50.0, LinkState(loss_rate=0.8)),
            Contribution(("S", "B"), 45.0, 55.0, LinkState(loss_rate=0.8)),
        )
        unavailability = {}
        for scheme in ("static-single", "static-two-disjoint", "flooding"):
            stats = replay_flow(
                diamond, timeline, FLOW, SERVICE, make_policy(scheme)
            )
            unavailability[scheme] = stats.unavailable_s
        assert unavailability["flooding"] <= unavailability["static-two-disjoint"]
        assert (
            unavailability["static-two-disjoint"]
            <= unavailability["static-single"] + 1e-9
        )

    def test_late_accounting(self, diamond):
        """Latency inflation pushes the only path past the deadline."""
        timeline = tl(
            diamond,
            Contribution(
                ("S", "A"), 40.0, 50.0, LinkState(extra_latency_ms=100.0)
            ),
            Contribution(
                ("S", "B"), 40.0, 50.0, LinkState(extra_latency_ms=100.0)
            ),
        )
        stats = replay_flow(
            diamond, timeline, FLOW, SERVICE, make_policy("static-two-disjoint")
        )
        assert stats.late_s == pytest.approx(10.0)
        assert stats.lost_s == 0.0

    def test_window_collection(self, diamond):
        timeline = tl(
            diamond, Contribution(("S", "A"), 40.0, 50.0, LinkState(loss_rate=1.0))
        )
        stats = replay_flow(
            diamond,
            timeline,
            FLOW,
            SERVICE,
            make_policy("static-single"),
            ReplayConfig(collect_windows=True),
        )
        assert stats.windows
        assert sum(w.duration_s for w in stats.windows) == pytest.approx(100.0)

    def test_cost_accounting_time_weighted(self, diamond):
        """Dynamic single path: 2 edges normally, 2 on the detour too."""
        timeline = tl(
            diamond, Contribution(("S", "A"), 0.0, 50.0, LinkState(loss_rate=1.0))
        )
        stats = replay_flow(
            diamond, timeline, FLOW, SERVICE, make_policy("dynamic-single")
        )
        assert stats.average_cost_messages == pytest.approx(2.0)


class TestRunReplay:
    def test_full_matrix(self, diamond):
        timeline = tl(
            diamond, Contribution(("S", "A"), 10.0, 30.0, LinkState(loss_rate=0.5))
        )
        result = run_replay(
            diamond,
            timeline,
            [FLOW],
            SERVICE,
            scheme_names=("static-single", "flooding"),
        )
        assert set(result.schemes) == {"static-single", "flooding"}
        assert result.flow_names == (FLOW.name,)
        totals = result.totals("static-single")
        assert totals.duration_s == pytest.approx(100.0)

    def test_empty_flows_rejected(self, diamond):
        with pytest.raises(Exception):
            run_replay(diamond, tl(diamond), [], SERVICE)

    def test_deterministic(self, diamond):
        timeline = tl(
            diamond, Contribution(("S", "A"), 10.0, 30.0, LinkState(loss_rate=0.5))
        )
        runs = [
            run_replay(
                diamond, timeline, [FLOW], SERVICE, scheme_names=("targeted",)
            )
            .totals("targeted")
            .unavailable_s
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


def twin_paths_topology() -> Topology:
    """Two disconnected, congruent 3-node paths (mirror halves)."""
    topology = Topology("twins")
    for node in ("A1", "B1", "C1", "A2", "B2", "C2"):
        topology.add_node(node)
    topology.add_link("A1", "B1", 5.0)
    topology.add_link("B1", "C1", 5.0)
    topology.add_link("A2", "B2", 5.0)
    topology.add_link("B2", "C2", 5.0)
    return topology.freeze()


class TestProbabilityCache:
    def test_cross_flow_congruent_graphs_share_one_entry(self):
        # The two flows' graphs are congruent under the monotone node
        # relabeling, so the second lookup is served from the entry the
        # first flow computed -- the cross-pair sharing raw per-flow keys
        # could never express.
        topology = twin_paths_topology()
        cache = _ProbabilityCache(deadline_ms=15.0, max_lossy_edges=20)
        graph_one = DisseminationGraph.from_path(["A1", "B1", "C1"])
        graph_two = DisseminationGraph.from_path(["A2", "B2", "C2"])
        first = cache.probabilities(
            topology, graph_one, {("A1", "B1"): LinkState(0.3)}, "s/f1"
        )
        second = cache.probabilities(
            topology, graph_two, {("A2", "B2"): LinkState(0.3)}, "s/f2"
        )
        assert cache.misses == 1
        assert cache.hits == 1
        assert cache.shared_hits == 1
        assert first.on_time.hex() == second.on_time.hex()
        assert first.eventually.hex() == second.eventually.hex()

    def test_same_group_hit_is_not_shared(self):
        topology = twin_paths_topology()
        cache = _ProbabilityCache(deadline_ms=15.0, max_lossy_edges=20)
        graph = DisseminationGraph.from_path(["A1", "B1", "C1"])
        degraded = {("A1", "B1"): LinkState(0.3)}
        cache.probabilities(topology, graph, degraded, "s/f1")
        cache.probabilities(topology, graph, degraded, "s/f1")
        assert cache.hits == 1
        assert cache.shared_hits == 0

    def test_mask_classification_reused_across_loss_values(self):
        # Loss values weight the enumeration cases but never change
        # which cases deliver, so a loss-only change reuses the cached
        # Dijkstra classification (a distinct probability entry, but no
        # re-enumeration).
        topology = twin_paths_topology()
        cache = _ProbabilityCache(deadline_ms=15.0, max_lossy_edges=20)
        graph = DisseminationGraph.from_path(["A1", "B1", "C1"])
        first = cache.probabilities(
            topology, graph, {("A1", "B1"): LinkState(0.3)}, "s/f1"
        )
        second = cache.probabilities(
            topology, graph, {("A1", "B1"): LinkState(0.4)}, "s/f1"
        )
        assert cache.misses == 2
        assert cache.mask_hits == 1
        # bitwise-identical to an uncached computation
        fresh = _ProbabilityCache(deadline_ms=15.0, max_lossy_edges=20)
        expected = fresh.probabilities(
            topology, graph, {("A1", "B1"): LinkState(0.4)}, "s/f1"
        )
        assert second.on_time.hex() == expected.on_time.hex()
        assert second.eventually.hex() == expected.eventually.hex()
        assert first.on_time.hex() != second.on_time.hex()

    def test_lru_eviction_bounds_footprint(self):
        topology = twin_paths_topology()
        cache = _ProbabilityCache(
            deadline_ms=15.0, max_lossy_edges=20, max_bytes=900
        )
        graph = DisseminationGraph.from_path(["A1", "B1", "C1"])
        for step in range(1, 20):
            cache.probabilities(
                topology, graph, {("A1", "B1"): LinkState(step / 40.0)}, "s/f1"
            )
        assert cache.evicted > 0
        assert cache._bytes <= 900
        assert cache.counters()["evicted"] == cache.evicted

    def test_unbounded_when_max_bytes_none(self):
        topology = twin_paths_topology()
        cache = _ProbabilityCache(
            deadline_ms=15.0, max_lossy_edges=20, max_bytes=None
        )
        graph = DisseminationGraph.from_path(["A1", "B1", "C1"])
        for step in range(1, 20):
            cache.probabilities(
                topology, graph, {("A1", "B1"): LinkState(step / 40.0)}, "s/f1"
            )
        assert cache.evicted == 0


class TestProbCacheEnvKnob:
    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv(PROB_CACHE_MAX_BYTES_ENV, raising=False)
        assert default_prob_cache_max_bytes() == 64 * 1024 * 1024

    def test_zero_means_unlimited(self, monkeypatch):
        monkeypatch.setenv(PROB_CACHE_MAX_BYTES_ENV, "0")
        assert default_prob_cache_max_bytes() is None

    def test_explicit_value(self, monkeypatch):
        monkeypatch.setenv(PROB_CACHE_MAX_BYTES_ENV, "12345")
        assert default_prob_cache_max_bytes() == 12345

    def test_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv(PROB_CACHE_MAX_BYTES_ENV, "lots")
        with pytest.raises(ValueError, match="integer byte count"):
            default_prob_cache_max_bytes()

    def test_rejects_negative(self, monkeypatch):
        monkeypatch.setenv(PROB_CACHE_MAX_BYTES_ENV, "-1")
        with pytest.raises(ValueError, match=">= 0"):
            default_prob_cache_max_bytes()


class TestCanonicalMemoCap:
    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv(PROB_CANONICAL_MAX_ENTRIES_ENV, raising=False)
        assert default_prob_canonical_max_entries() == 4096

    def test_zero_means_unlimited(self, monkeypatch):
        monkeypatch.setenv(PROB_CANONICAL_MAX_ENTRIES_ENV, "0")
        assert default_prob_canonical_max_entries() is None

    def test_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv(PROB_CANONICAL_MAX_ENTRIES_ENV, "many")
        with pytest.raises(ValueError):
            default_prob_canonical_max_entries()

    def test_cap_evicts_and_results_unchanged(self, monkeypatch):
        # Three structurally distinct graphs against a cap of two: the
        # memo must evict, and because every canonical entry is a pure
        # function of (topology, graph), re-deriving an evicted entry
        # yields bitwise-identical probabilities.
        monkeypatch.setenv(PROB_CANONICAL_MAX_ENTRIES_ENV, "2")
        topology = twin_paths_topology()
        capped = _ProbabilityCache(deadline_ms=15.0, max_lossy_edges=20)
        assert capped.max_canonical_entries == 2
        graphs = [
            DisseminationGraph.from_path(["A1", "B1", "C1"]),
            DisseminationGraph.from_path(["A1", "B1"]),
            DisseminationGraph.from_path(["B1", "C1"]),
        ]
        degraded = {("A1", "B1"): LinkState(0.3)}
        for _round in range(2):
            for graph in graphs:
                capped.probabilities(topology, graph, degraded, "s/f1")
        assert capped.canonical_evictions > 0
        assert len(capped._canonical) <= 2
        assert (
            capped.counters()["canonical_evictions"]
            == capped.canonical_evictions
        )
        monkeypatch.delenv(PROB_CANONICAL_MAX_ENTRIES_ENV)
        unlimited = _ProbabilityCache(deadline_ms=15.0, max_lossy_edges=20)
        for graph in graphs:
            capped_result = capped.probabilities(
                topology, graph, degraded, "s/f1"
            )
            fresh = unlimited.probabilities(topology, graph, degraded, "s/f1")
            assert capped_result.on_time.hex() == fresh.on_time.hex()
            assert capped_result.eventually.hex() == fresh.eventually.hex()

    def test_recently_used_entry_survives(self, monkeypatch):
        monkeypatch.setenv(PROB_CANONICAL_MAX_ENTRIES_ENV, "2")
        topology = twin_paths_topology()
        cache = _ProbabilityCache(deadline_ms=15.0, max_lossy_edges=20)
        keeper = DisseminationGraph.from_path(["A1", "B1", "C1"])
        degraded = {("A1", "B1"): LinkState(0.3)}
        cache.probabilities(topology, keeper, degraded, "s/f1")
        for other in (["A1", "B1"], ["B1", "C1"]):
            # Touch the keeper between inserts: LRU must evict the others.
            cache.probabilities(
                topology, DisseminationGraph.from_path(other), degraded, "s/f1"
            )
            cache.probabilities(topology, keeper, degraded, "s/f1")
        assert keeper in cache._canonical


class TestDeltaReuseEquivalence:
    def test_delta_hinted_replay_is_bitwise_identical(self, diamond):
        timeline = tl(
            diamond,
            Contribution(("S", "A"), 10.0, 30.0, LinkState(loss_rate=0.5)),
            Contribution(("S", "B"), 20.0, 60.0, LinkState(0.0, 40.0)),
            Contribution(("A", "T"), 45.0, 70.0, LinkState(loss_rate=0.2)),
        )
        config = ReplayConfig(detection_delay_s=1.0)
        boundaries = decision_boundaries(timeline, config.detection_delay_s)
        observed_views, observed_deltas = observed_views_with_deltas(
            timeline, boundaries, config.detection_delay_s
        )
        actual_views, actual_deltas = timeline.degraded_views(
            list(boundaries[:-1])
        )
        for scheme in ("static-single", "dynamic-single", "targeted", "flooding"):
            with_deltas = replay_flow(
                diamond, timeline, FLOW, SERVICE, make_policy(scheme), config,
                boundaries=boundaries, observed_views=observed_views,
                actual_views=actual_views, observed_deltas=observed_deltas,
                actual_deltas=actual_deltas,
            )
            without_deltas = replay_flow(
                diamond, timeline, FLOW, SERVICE, make_policy(scheme), config,
                boundaries=boundaries, observed_views=observed_views,
                actual_views=actual_views, observed_deltas=None,
                actual_deltas=None,
            )
            for attribute in (
                "duration_s", "unavailable_s", "lost_s", "late_s",
                "message_seconds",
            ):
                hinted = getattr(with_deltas, attribute)
                plain = getattr(without_deltas, attribute)
                assert hinted.hex() == plain.hex(), (scheme, attribute)
            assert with_deltas.decision_changes == without_deltas.decision_changes
