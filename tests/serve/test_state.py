"""Server-lifetime warm state: context LRU, flow resolution, counters."""

from __future__ import annotations

import pytest

from repro.netmodel.presets import preset_scenario
from repro.netmodel.scenarios import generate_timeline
from repro.netmodel.topology import ServiceSpec, build_reference_topology
from repro.serve.state import ContextCache, ServeRuntime
from repro.simulation.results import ReplayConfig
from repro.util.validation import ValidationError


@pytest.fixture(scope="module")
def topology():
    return build_reference_topology()


def _timeline(topology, seed: int = 3, duration_s: float = 3600.0):
    scenario = preset_scenario("default", duration_s=duration_s)
    _events, timeline = generate_timeline(topology, scenario, seed=seed)
    return timeline


class TestContextCache:
    def test_first_get_builds_then_second_is_warm(self, topology):
        cache = ContextCache(capacity=2)
        timeline = _timeline(topology)
        service, config = ServiceSpec(), ReplayConfig()
        first, warm_first = cache.get(topology, timeline, service, config)
        second, warm_second = cache.get(topology, timeline, service, config)
        assert warm_first is False
        assert warm_second is True
        assert first is second  # same warm object, same memo
        assert cache.counters() == {
            "hits": 1, "misses": 1, "evictions": 0, "entries": 1,
        }

    def test_different_config_gets_its_own_context(self, topology):
        # Sharing a memo across different deadlines would be silently
        # wrong; the context key must separate them.
        cache = ContextCache(capacity=4)
        timeline = _timeline(topology)
        a, _ = cache.get(topology, timeline, ServiceSpec(), ReplayConfig())
        b, _ = cache.get(
            topology, timeline, ServiceSpec(deadline_ms=130.0), ReplayConfig()
        )
        assert a is not b
        assert cache.counters()["entries"] == 2

    def test_lru_eviction_at_capacity(self, topology):
        cache = ContextCache(capacity=1)
        timeline_a = _timeline(topology, seed=1)
        timeline_b = _timeline(topology, seed=2)
        service, config = ServiceSpec(), ReplayConfig()
        first, _ = cache.get(topology, timeline_a, service, config)
        cache.get(topology, timeline_b, service, config)  # evicts the first
        assert cache.counters()["evictions"] == 1
        again, warm = cache.get(topology, timeline_a, service, config)
        assert warm is False  # had to rebuild: the entry was evicted
        assert again is not first

    def test_capacity_validated(self):
        with pytest.raises(ValidationError):
            ContextCache(capacity=0)

    def test_prob_counters_sum_resident_contexts(self, topology):
        cache = ContextCache(capacity=2)
        timeline = _timeline(topology)
        context, _ = cache.get(topology, timeline, ServiceSpec(), ReplayConfig())
        context.probability_cache.hits = 5
        context.probability_cache.misses = 2
        totals = cache.prob_counters()
        assert totals["hits"] == 5
        assert totals["misses"] == 2
        assert set(totals) == set(context.probability_cache.counters())


class TestServeRuntime:
    def test_select_flows_defaults_to_reference_table(self):
        runtime = ServeRuntime(use_disk_cache=False)
        assert runtime.select_flows(None) == list(runtime.flows)

    def test_select_flows_by_name_preserves_order(self):
        runtime = ServeRuntime(use_disk_cache=False)
        names = (runtime.flows[3].name, runtime.flows[0].name)
        selected = runtime.select_flows(names)
        assert [flow.name for flow in selected] == list(names)

    def test_select_flows_unknown_is_one_line(self):
        runtime = ServeRuntime(use_disk_cache=False)
        with pytest.raises(ValidationError, match="unknown flow"):
            runtime.select_flows(("NOWHERE->NOPLACE",))

    def test_cache_stats_shape(self):
        runtime = ServeRuntime(use_disk_cache=False)
        stats = runtime.cache_stats()
        assert stats["disk_cache"] is False
        for key in (
            "context_hits", "context_misses", "context_evictions",
            "context_entries", "prob_hits", "prob_misses",
            "prob_shared_hits", "prob_mask_hits", "prob_evicted",
        ):
            assert stats[key] == 0
