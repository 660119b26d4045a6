"""Replay counters: one path from their source to every report.

A counter is named once, where it is counted (the probability memo's
``counters()`` and the kernel's ``counters()``); telemetry, the summary
table, run manifests and obs metrics carry whatever those return.
"""

from __future__ import annotations

import itertools

import pytest

from repro.exec.telemetry import aggregate_telemetry
from repro.obs import Observability
from repro.simulation.interval import (
    PROB_CANONICAL_MAX_ENTRIES_ENV,
    _ProbabilityCache,
)

from tests.exec.test_engine import small_case
from tests.exec.test_engine_obs import _run


def _collapsed(telemetry) -> str:
    return " ".join(telemetry.summary_table().split())


class TestCounterPath:
    def test_source_counter_reaches_every_report(self, monkeypatch):
        # A counter that exists only in the memo's snapshot: every shard
        # takes two snapshots, so each shard's delta is exactly 1.
        original = _ProbabilityCache.counters
        ticks = itertools.count()

        def with_probe(self):
            return {**original(self), "probe_ticks": next(ticks)}

        monkeypatch.setattr(_ProbabilityCache, "counters", with_probe)
        obs = Observability()
        _result, telemetry = _run(obs, time_shards=2)
        shards = telemetry.shards_run
        assert shards > 1
        assert telemetry.to_dict()["prob_probe_ticks"] == shards
        assert "prob-cache probe ticks " + str(shards) in _collapsed(telemetry)
        assert obs.metrics.value("exec.prob_cache.probe_ticks") == shards
        total = aggregate_telemetry([telemetry, telemetry])
        assert total.counters["prob_probe_ticks"] == 2 * shards
        assert total.to_dict()["prob_probe_ticks"] == 2 * shards

    def test_kernel_counters_reach_metrics(self):
        obs = Observability()
        _result, telemetry = _run(obs)
        rows = telemetry.counters["kernel_pure_rows"] + telemetry.counters[
            "kernel_vector_rows"
        ]
        assert rows > 0
        assert (
            obs.metrics.value("replay.kernel.pure_rows")
            + obs.metrics.value("replay.kernel.vector_rows")
            == rows
        )
        backend = telemetry.kernel_backend
        assert obs.metrics.value(f"replay.kernel.backend.{backend}") == 1

    def test_canonical_memo_evictions_are_reported(self, monkeypatch):
        # The canonical-graph memo's LRU cap is a hard limit: when it
        # binds, the run must say so in every report.
        monkeypatch.setenv(PROB_CANONICAL_MAX_ENTRIES_ENV, "1")
        obs = Observability()
        _result, telemetry = _run(obs)
        evictions = telemetry.to_dict()["prob_canonical_evictions"]
        assert evictions > 0
        assert f"prob-cache canonical evictions {evictions}" in _collapsed(
            telemetry
        )
        assert (
            obs.metrics.value("exec.prob_cache.canonical_evictions")
            == evictions
        )


@pytest.mark.slow
class TestWorkerCounters:
    def test_pool_workers_report_counters_home(self):
        # Each pool worker keeps its own memo, so hits, misses and kernel
        # work depend on which shards shared a worker; the number of
        # degraded-window lookups does not.
        from repro.exec.engine import run_replay_parallel
        from tests.exec.test_plan import SMALL_SCHEMES

        topology, timeline, flows, service = small_case()

        def run(max_workers):
            _result, telemetry = run_replay_parallel(
                topology,
                timeline,
                flows,
                service,
                SMALL_SCHEMES,
                max_workers=max_workers,
                time_shards=2,
                use_cache=False,
            )
            return telemetry

        serial, pooled = run(0), run(2)
        assert pooled.shards_run == pooled.shards_total > 1
        assert pooled.shards_fallback == 0

        def lookups(telemetry):
            return (
                telemetry.counters["prob_hits"]
                + telemetry.counters["prob_misses"]
            )

        assert lookups(pooled) == lookups(serial) > 0
        assert pooled.counters["prob_misses"] >= serial.counters["prob_misses"]
        assert (
            pooled.counters["kernel_pure_calls"]
            + pooled.counters["kernel_vector_calls"]
            > 0
        )
