"""Telemetry records: dict form and session aggregation."""

from __future__ import annotations

import pytest

from repro.exec.telemetry import (
    ExecTelemetry,
    record,
    reset_session,
    session_records,
    session_summary,
    session_totals,
)


@pytest.fixture(autouse=True)
def _clean_session():
    reset_session()
    yield
    reset_session()


def _telemetry(**overrides) -> ExecTelemetry:
    telemetry = ExecTelemetry(
        label="t",
        workers=2,
        shards_total=4,
        shards_run=3,
        shards_cached=1,
        wall_time_s=1.0,
        shard_wall_s=[0.25, 0.25, 0.5],
    )
    for name, value in overrides.items():
        setattr(telemetry, name, value)
    return telemetry


class TestToDict:
    def test_all_counters_present(self):
        payload = _telemetry(cache_corrupt=2, cache_evicted=3).to_dict()
        assert payload["shards_total"] == 4
        assert payload["cache_corrupt"] == 2
        assert payload["cache_evicted"] == 3
        assert payload["busy_s"] == 1.0
        assert payload["max_shard_s"] == 0.5

    def test_json_safe(self):
        import json

        json.dumps(_telemetry().to_dict())

    def test_empty_record(self):
        payload = ExecTelemetry().to_dict()
        assert payload["mean_shard_s"] == 0.0
        assert payload["utilization"] == 0.0


class TestSessionAggregation:
    def test_totals_sum_every_counter(self):
        record(_telemetry(cache_corrupt=1, cache_evicted=2))
        record(_telemetry(cache_corrupt=3, cache_evicted=0, shards_retried=1))
        total = session_totals()
        assert total.shards_total == 8
        assert total.shards_run == 6
        assert total.shards_cached == 2
        assert total.shards_retried == 1
        # Cache-health counters must survive aggregation: a corruption
        # seen in any run of the session shows in the aggregate.
        assert total.cache_corrupt == 4
        assert total.cache_evicted == 2
        assert total.wall_time_s == 2.0
        assert len(total.shard_wall_s) == 6

    def test_totals_none_when_empty(self):
        assert session_totals() is None
        assert session_summary() is None

    def test_summary_table_shows_aggregated_cache_health(self):
        record(_telemetry(cache_corrupt=1))
        record(_telemetry(cache_corrupt=2, cache_evicted=5))
        collapsed = " ".join(session_summary().split())
        assert "corrupt cache entries 3" in collapsed
        assert "cache entries evicted 5" in collapsed

    def test_records_are_immutable_view(self):
        record(_telemetry())
        assert len(session_records()) == 1
        reset_session()
        assert session_records() == ()


class TestProbCacheCounters:
    def test_to_dict_carries_prob_counters(self):
        payload = _telemetry(
            counters={
                "prob_hits": 6,
                "prob_misses": 2,
                "prob_shared_hits": 3,
                "prob_mask_hits": 1,
                "prob_evicted": 4,
            }
        ).to_dict()
        assert payload["prob_hits"] == 6
        assert payload["prob_misses"] == 2
        assert payload["prob_shared_hits"] == 3
        assert payload["prob_mask_hits"] == 1
        assert payload["prob_evicted"] == 4
        assert payload["prob_hit_rate"] == pytest.approx(0.75)

    def test_hit_rate_zero_without_lookups(self):
        assert ExecTelemetry().prob_hit_rate == 0.0

    def test_totals_sum_prob_counters(self):
        record(
            _telemetry(
                counters={"prob_hits": 10, "prob_misses": 5, "prob_evicted": 1}
            )
        )
        record(
            _telemetry(
                counters={
                    "prob_hits": 2,
                    "prob_misses": 1,
                    "prob_shared_hits": 2,
                    "prob_mask_hits": 3,
                    "prob_evicted": 1,
                }
            )
        )
        total = session_totals().counters
        assert total["prob_hits"] == 12
        assert total["prob_misses"] == 6
        assert total["prob_shared_hits"] == 2
        assert total["prob_mask_hits"] == 3
        assert total["prob_evicted"] == 2

    def test_summary_table_shows_prob_cache_rows(self):
        # Eviction telemetry must be user-visible, not just a counter
        # buried in the JSON payload.
        record(
            _telemetry(
                counters={
                    "prob_hits": 8,
                    "prob_misses": 2,
                    "prob_shared_hits": 3,
                    "prob_mask_hits": 5,
                    "prob_evicted": 7,
                }
            )
        )
        collapsed = " ".join(session_summary().split())
        assert "prob-cache hits 8" in collapsed
        assert "prob-cache misses 2" in collapsed
        assert "prob-cache hit rate 80 %" in collapsed
        assert "prob-cache shared hits 3" in collapsed
        assert "prob-cache mask hits 5" in collapsed
        assert "prob-cache evicted 7" in collapsed


class TestKernelCounters:
    def test_to_dict_carries_kernel_fields(self):
        payload = _telemetry(
            kernel_backend="numpy",
            counters={
                "kernel_vector_calls": 4,
                "kernel_pure_calls": 2,
                "kernel_vector_rows": 40,
                "kernel_pure_rows": 2,
                "kernel_vector_s": 0.25,
                "kernel_pure_s": 0.125,
            },
        ).to_dict()
        assert payload["kernel_backend"] == "numpy"
        assert payload["kernel_vector_calls"] == 4
        assert payload["kernel_pure_calls"] == 2
        assert payload["kernel_vector_rows"] == 40
        assert payload["kernel_pure_rows"] == 2
        assert payload["kernel_vector_s"] == 0.25
        assert payload["kernel_pure_s"] == 0.125

    def test_totals_sum_kernel_counters(self):
        record(
            _telemetry(
                kernel_backend="numpy",
                counters={
                    "kernel_vector_calls": 3,
                    "kernel_vector_rows": 30,
                    "kernel_vector_s": 0.5,
                },
            )
        )
        record(
            _telemetry(
                kernel_backend="numpy",
                counters={
                    "kernel_vector_calls": 1,
                    "kernel_pure_calls": 2,
                    "kernel_vector_rows": 5,
                    "kernel_pure_rows": 2,
                    "kernel_vector_s": 0.25,
                    "kernel_pure_s": 0.0625,
                },
            )
        )
        total = session_totals()
        assert total.kernel_backend == "numpy"
        assert total.counters["kernel_vector_calls"] == 4
        assert total.counters["kernel_pure_calls"] == 2
        assert total.counters["kernel_vector_rows"] == 35
        assert total.counters["kernel_pure_rows"] == 2
        assert total.counters["kernel_vector_s"] == 0.75
        assert total.counters["kernel_pure_s"] == 0.0625

    def test_summary_table_shows_kernel_rows(self):
        record(
            _telemetry(
                kernel_backend="pure",
                counters={
                    "kernel_vector_calls": 0,
                    "kernel_pure_calls": 6,
                    "kernel_vector_rows": 0,
                    "kernel_pure_rows": 18,
                    "kernel_pure_s": 0.5,
                },
            )
        )
        collapsed = " ".join(session_summary().split())
        assert "kernel backend pure" in collapsed
        assert "kernel vector calls 0" in collapsed
        assert "kernel pure calls 6" in collapsed
        assert "kernel pure rows 18" in collapsed
        assert "kernel pure time 0.50 s" in collapsed


class TestScopedSessions:
    # Satellite: concurrent serve requests each need their own session;
    # session_totals must never bleed between them.

    def test_nested_session_scopes_records(self):
        from repro.exec.telemetry import telemetry_session

        record(_telemetry())
        with telemetry_session("inner") as session:
            assert session_records() == ()  # fresh scope, not the default's
            record(_telemetry())
            assert len(session.records()) == 1
            assert session_totals().label == "inner (1 runs)"
        # leaving the scope restores the default session untouched
        assert len(session_records()) == 1

    def test_session_object_outlives_scope(self):
        from repro.exec.telemetry import telemetry_session

        with telemetry_session("kept") as session:
            record(_telemetry())
        assert len(session.records()) == 1
        assert session.totals().shards_run == 3

    def test_concurrent_thread_sessions_do_not_bleed(self):
        import threading

        from repro.exec.telemetry import telemetry_session

        totals = {}
        barrier = threading.Barrier(3)

        def worker(name: str, count: int):
            with telemetry_session(name) as session:
                barrier.wait()  # all sessions live before any records
                for _ in range(count):
                    record(_telemetry())
                barrier.wait()  # all records in before any totals
                totals[name] = session.totals()

        threads = [
            threading.Thread(target=worker, args=(f"s{index}", index + 1))
            for index in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for index in range(3):
            assert totals[f"s{index}"].label == f"s{index} ({index + 1} runs)"
            assert totals[f"s{index}"].shards_run == 3 * (index + 1)
        assert session_records() == ()  # nothing leaked into the default

    def test_aggregate_telemetry_standalone(self):
        from repro.exec.telemetry import aggregate_telemetry

        total = aggregate_telemetry(
            [_telemetry(), _telemetry()], label="combined"
        )
        assert total is not None
        assert total.label == "combined"
        assert total.shards_total == 8
        assert aggregate_telemetry([]) is None
