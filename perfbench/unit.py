"""One unit of a benchmark run, in a fresh Python process.

``run.py`` starts this script once per unit so every unit begins cold:
no warm module state, no disk cache from an earlier unit.  A unit makes
its set-up calls several times, runs the workload once, checks every
result and prints one JSON object as its last line of output.  Every
timing is reported in seconds at the reference speed of ``hostclock``;
the measured ones are kept under ``raw``.

    python3 perfbench/unit.py --workload e2-replay --seed 3 --work-dir DIR \
        [--budget-s 30]

``--traced`` wraps the program's layer boundaries (see ``spans.py``),
adds per-layer figures to the output and writes the spans to
``--spans-out``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import hostclock  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from repro.exec import engine  # noqa: E402
from repro.netmodel.scenarios import generate_timeline  # noqa: E402
from repro.netmodel.topology import ServiceSpec  # noqa: E402
from repro.serve import (  # noqa: E402
    EvaluateRequest,
    ServeClient,
    ServeConfig,
    ServerError,
    ServerThread,
)
from repro.simulation.results import ReplayConfig  # noqa: E402
from repro.topogen import registry, resolve_workload  # noqa: E402
from repro.util.validation import ValidationError  # noqa: E402

#: Set-up repetitions before the workload starts.  More follow, one at
#: a time, spread over the unit: host speed changes within seconds, so
#: ``setup_s`` (the median) must not come from one burst.
SETUP_REPEATS = 10
#: A cached-phase cycle: one cold evaluation into an empty shard cache,
#: then this many evaluations served wholly from it.
HITS_PER_CYCLE = 30
#: Cycles a replay unit runs at least (and exactly, when untimed):
#: 120 hits, so ``hit_p90_s`` has more than ten samples beyond it.
MIN_CYCLES = 4
CALIBRATION_ITERATIONS = 1_000_000
#: Root spans of set-up calls; evaluations may hold these names deeper.
SETUP_SPANS = frozenset(
    {"topogen.resolve", "topogen.generate", "netmodel.timeline", "serve.start"}
)
#: Span name -> layer of the per-layer split.
LAYERS = {
    "request": "client and transport",
    "serve.execute": "serve session",
    "serve.context": "serve session",
    "netmodel.timeline": "serve session",
    "topogen.resolve": "serve session",
    "exec.replay": "exec engine",
    "exec.plan": "exec engine",
    "exec.merge": "exec engine",
    "exec.cache_load": "shard cache load",
    "exec.cache_store": "shard cache store",
    "exec.context": "condition views",
    "timeline.boundaries": "condition views",
    "timeline.views": "condition views",
    "routing.decide": "policy decisions",
    "routing.disjoint_paths": "policy decisions",
    "routing.observed_adjacency": "policy decisions",
    "interval.windows": "window loop",
    "interval.cache": "probability-cache keying",
    "reliability.classify": "mask classification",
    "reliability.accumulate": "probability accumulation",
    "trace.observe": "tracing overhead",
}

#: The program's set-up memos, captured before any wrapper replaces them.
_MEMOS = [
    value.cache_clear
    for value in vars(registry).values()
    if callable(getattr(value, "cache_clear", None))
]


def calibrate() -> float:
    """Time a fixed pure-Python loop: how fast the host runs right now."""
    start = time.perf_counter()
    total = 0
    for index in range(CALIBRATION_ITERATIONS):
        total += index * index % 7
    return time.perf_counter() - start


def clear_memos() -> None:
    for clear in _MEMOS:
        clear()


class Unit:
    """Samples and failures of one unit."""

    def __init__(self, recorder: spans.Recorder | None) -> None:
        self.recorder = recorder
        self.clock = hostclock.HostClock()
        #: Metric -> (monotonic start, monotonic end, measured seconds).
        self.records: dict[str, list[tuple[float, float, float]]] = {}
        self.samples: dict[str, list[float]] = {}
        self.raw: dict[str, list[float]] = {}
        #: Requests whose latencies make ``requests_per_s`` (None: all).
        self.throughput_requests: int | None = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.info: dict[str, object] = {}

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def record(self, name: str, start: float, end: float, seconds: float) -> None:
        self.records.setdefault(name, []).append((start, end, seconds))

    @contextlib.contextmanager
    def timing(self, name: str, *, cpu: bool = False):
        """Time a block that completes: wall time, or with ``cpu`` this
        thread's CPU time (for a call the sampler thread runs beside)."""
        clock = time.thread_time if cpu else time.perf_counter
        start, begin = time.monotonic(), clock()
        yield
        self.record(name, start, time.monotonic(), clock() - begin)

    def finish(self) -> None:
        """Turn the records into samples at the reference speed."""
        self.clock.sample()
        for name, records in self.records.items():
            self.raw[name] = [seconds for _start, _end, seconds in records]
            self.samples[name] = [
                seconds * self.clock.scale(start, end)
                for start, end, seconds in records
            ]
        # The closed loop's throughput: its requests, in the order sent,
        # over the sum of their latencies.
        kinds = ("hit_s", "miss_s")
        starts = [
            start for kind in kinds for start, _end, _seconds in self.records.get(kind, ())
        ]
        for figures in (self.samples, self.raw):
            latencies = [seconds for kind in kinds for seconds in figures.get(kind, ())]
            chosen = [seconds for _start, seconds in sorted(zip(starts, latencies))]
            chosen = chosen[: self.throughput_requests]
            if chosen:
                figures["requests_per_s"] = [len(chosen) / sum(chosen)]

    def check(self, operation: str, problems: list[str]) -> None:
        """Count ``operation`` as failed if any check found a problem."""
        if not problems:
            return
        self.failed += 1
        if len(self.errors) < 20:
            more = f" (+{len(problems) - 1} more)" if len(problems) > 1 else ""
            self.errors.append(f"{operation}: {problems[0]}{more}")


# -- replay workloads -------------------------------------------------------------


def _replay_setup(unit: Unit, workload: workloads.ReplayWorkload, repeats: int):
    """The calls ``evaluate`` makes before its replay, each timed cold."""
    for _ in range(repeats):
        clear_memos()
        unit.clock.between()
        with unit.timing("setup_s"):
            with spans.span(unit.recorder, "topogen.resolve"):
                resolved = resolve_workload(*workload.topology)
            with spans.span(unit.recorder, "netmodel.timeline"):
                _events, timeline = generate_timeline(
                    resolved.topology,
                    workloads.scenario(workload.weeks),
                    seed=workloads.TRACE_SEED,
                )
    return resolved, timeline


def _evaluate(unit, kind, resolved, timeline, flows, schemes, *, cpu=False, **cache):
    """One evaluation through the exec engine: ``(result, telemetry)``, or
    None if the program raised, which counts as a failed operation."""
    unit.attempted += 1
    try:
        with spans.request(unit.recorder) as opened, unit.timing(kind, cpu=cpu):
            outcome = engine.run_replay_parallel(
                resolved.topology,
                timeline,
                flows,
                ServiceSpec(),
                scheme_names=schemes,
                config=ReplayConfig(detection_delay_s=workloads.DETECTION_DELAY_S),
                max_workers=0,
                label="perfbench",
                **cache,
            )
    except Exception as error:  # noqa: BLE001 - any program error fails the operation
        unit.check(f"{kind} evaluation {unit.attempted}", [f"raised {error!r}"])
        return None
    if opened is not None:
        opened.info["kind"] = kind
    return outcome


def run_replay(
    unit: Unit, name: str, seed: int, work: Path, expected: dict, until: float
) -> None:
    """The cold replay, then cached-phase cycles until ``until``."""
    workload = workloads.REPLAY_WORKLOADS[name]
    resolved, timeline = _replay_setup(unit, workload, SETUP_REPEATS)
    rng = random.Random(seed)
    flows = workloads.shuffled(resolved.select_flows(None), rng)
    schemes = workloads.shuffled(workload.schemes, rng)

    # The cold replay, made as ``evaluate --workers 0 --no-cache`` makes it,
    # with the reference sampled beside it.
    with unit.clock.during():
        outcome = _evaluate(
            unit, "replay_s", resolved, timeline, flows, schemes, cpu=True,
            use_cache=False,
        )
    if outcome is not None:
        result, telemetry = outcome
        unit.info["kernel_backend"] = telemetry.kernel_backend
        unit.check(
            "cold replay",
            workloads.mismatches(workloads.pair_rows(result), expected[name]),
        )

    # The cached path, in cycles spread over the rest of the unit: a cold
    # evaluation into an empty shard cache, evaluations whose every shard
    # is read back from it, and one more set-up sample.
    _events, short = generate_timeline(
        resolved.topology,
        workloads.scenario(workload.cache_weeks),
        seed=workloads.TRACE_SEED,
    )
    want = expected[f"{name}/cache"]
    evaluations, cycles, cycle_s = 0, 0, 0.0
    while cycles < MIN_CYCLES or time.monotonic() + cycle_s < until:
        cycle_start = time.monotonic()
        cache_dir = tempfile.mkdtemp(dir=work)
        for index in range(1 + HITS_PER_CYCLE):
            miss = index == 0
            unit.clock.between()
            # A miss is long enough for the sampler thread to run beside it.
            with unit.clock.during() if miss else contextlib.nullcontext():
                outcome = _evaluate(
                    unit, "miss_s" if miss else "hit_s", resolved, short, flows,
                    schemes, cpu=miss, use_cache=True, cache_dir=cache_dir,
                )
            evaluations += 1
            if outcome is None:
                continue
            result, telemetry = outcome
            problems = workloads.mismatches(workloads.pair_rows(result), want)
            if telemetry.shards_cached != (0 if miss else telemetry.shards_total):
                problems.append(
                    f"{telemetry.shards_cached} of {telemetry.shards_total} "
                    "shards cached"
                )
            unit.check(f"cached evaluation {evaluations}", problems)
        shutil.rmtree(cache_dir)
        _replay_setup(unit, workload, 1)
        cycles += 1
        cycle_s = time.monotonic() - cycle_start


# -- serve mix --------------------------------------------------------------------


def _start_server(cache_dir: Path) -> tuple[ServerThread, ServeClient]:
    server = ServerThread(
        ServeConfig(port=0, max_active=1, cache_dir=str(cache_dir))
    )
    port = server.start()
    client = ServeClient(port=port)
    health = client.health()
    if health.get("status") != "ok":
        server.stop()
        raise ServerError(503, f"daemon not ready: {health}")
    return server, client


def _serve_setup(unit: Unit, work: Path, repeats: int) -> None:
    """Daemon start until ``/v1/health`` answers, each timed cold."""
    for _ in range(repeats):
        clear_memos()
        cache_dir = Path(tempfile.mkdtemp(dir=work))
        unit.clock.between()
        with unit.timing("setup_s"), spans.span(unit.recorder, "serve.start"):
            server, _client = _start_server(cache_dir)
        server.stop()
        shutil.rmtree(cache_dir)


def run_serve(
    unit: Unit, seed: int, work: Path, expected: dict, until: float
) -> None:
    """The cold pass, then rounds of visits until ``until`` (at least
    ``SERVE_ROUNDS``), with set-up samples spread between requests."""
    _serve_setup(unit, work, SETUP_REPEATS)
    server, client = _start_server(Path(tempfile.mkdtemp(dir=work)))
    first: dict[tuple, str] = {}  # request -> digest of its first response
    cold_rows: dict[int, dict] = {}
    completed, index, batch_s = 0, 0, 0.0
    try:
        for number, batch in enumerate(workloads.serve_sequence(seed)):
            batch_start = time.monotonic()
            if number > workloads.SERVE_ROUNDS and batch_start + batch_s >= until:
                break
            # The cold pass is long requests: the sampler thread runs
            # beside them (its share of the core is in their latency).
            with unit.clock.during() if number == 0 else contextlib.nullcontext():
                for trace, schemes in batch:
                    completed += _serve_request(
                        unit, client, index, trace, schemes, first, cold_rows,
                        expected,
                    )
                    index += 1
                    if index % 4 == 0:
                        _serve_setup(unit, work, 1)
            batch_s = time.monotonic() - batch_start
            if number == workloads.SERVE_ROUNDS:
                # Throughput over the fixed part of the sequence: later
                # rounds are all hits and would change the mix.
                unit.throughput_requests = completed
        contexts = server.server.runtime.contexts.counters()
        for name in ("hits", "misses", "evictions"):
            unit.info[f"serve.context_{name}"] = contexts[name]
    finally:
        server.stop()


def _serve_request(
    unit, client, index, trace, schemes, first, cold_rows, expected
) -> int:
    """One request of the closed loop; returns 1 if it completed."""
    request = EvaluateRequest(
        weeks=workloads.SERVE_WEEKS, seed=trace, schemes=schemes
    )
    unit.attempted += 1
    unit.clock.between()
    with spans.request(unit.recorder) as opened:
        start, begin = time.monotonic(), time.perf_counter()
        try:
            payload, manifest, _progress = client.run(request)
        except (ServerError, ValidationError, OSError) as error:
            unit.check(f"request {index}", [str(error)])
            return 0
        latency = time.perf_counter() - begin
    end = time.monotonic()
    totals = manifest["exec"]
    kind = (
        "hit_s" if totals["shards_cached"] == totals["shards_total"] else "miss_s"
    )
    unit.record(kind, start, end, latency)
    if kind == "miss_s":
        unit.record("replay_s", start, end, totals["wall_time_s"])
    if opened is not None:
        opened.info["kind"] = kind
    unit.check(
        f"request {index}",
        _serve_problems((trace, schemes), payload, first, cold_rows, expected),
    )
    return 1


def _serve_problems(key, payload, first, cold_rows, expected) -> list[str]:
    """Every response equals the first response to the same request, and
    every pair equals the cold full response of its trace (itself checked
    against the expected values)."""
    trace, schemes = key
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()
    if key in first:
        if digest != first[key]:
            return ["response differs from the first response to it"]
        return []
    first[key] = digest
    rows = workloads.payload_rows(payload)
    if schemes is None:
        cold_rows[trace] = rows
        return workloads.mismatches(rows, expected[f"{workloads.SERVE}/{trace}"])
    cold = cold_rows.get(trace, {})
    return [
        f"{pair} differs from the cold response"
        for pair, values in rows.items()
        if cold.get(pair) != values
    ]


# -- per-layer figures (traced units) ---------------------------------------------


class _Trace:
    """Queries over one unit's spans."""

    def __init__(self, recorder: spans.Recorder) -> None:
        self.spans = recorder.spans
        self.selfs = spans.self_times(self.spans)
        by_id = {span.span_id: span for span in self.spans}
        self.root: dict[int, spans.Span] = {}
        for span in self.spans:
            root = span
            while root.parent is not None:
                root = by_id[root.parent]
            self.root[span.span_id] = root

    def named(self, name: str) -> list[spans.Span]:
        return [span for span in self.spans if span.name == name]

    def total(self, name: str) -> float:
        return sum(span.duration for span in self.named(name))

    def self_sum(self, name: str) -> float:
        return sum(self.selfs[span.span_id] for span in self.named(name))

    def info(self, name: str, key: str) -> list:
        return [span.info[key] for span in self.named(name) if key in span.info]

    def setup_median(self, name: str) -> float:
        """Median duration of ``name`` calls made during set-up."""
        durations = [
            span.duration
            for span in self.named(name)
            if self.root[span.span_id].name in SETUP_SPANS
        ]
        return statistics.median(durations) if durations else 0.0

    def split(self) -> dict[str, dict[str, float]]:
        """Request kind -> layer -> self seconds, over every evaluation."""
        result: dict[str, dict[str, float]] = {}
        for span in self.spans:
            root = self.root[span.span_id]
            if root.name != "request":
                continue  # set-up calls are reported on their own
            layers = result.setdefault(
                root.info.get("kind", "failed"),
                dict.fromkeys(sorted(set(LAYERS.values())), 0.0),
            )
            layers[LAYERS[span.name]] += self.selfs[span.span_id]
        return result


def layer_metrics(unit: Unit, trace: _Trace) -> dict[str, float]:
    recorder = unit.recorder
    assert recorder is not None
    telemetry: dict[str, float] = {}
    for span in spans.outermost(trace.spans, "exec.replay"):
        for key, value in span.info["telemetry"].items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                telemetry[key] = telemetry.get(key, 0) + value
    lookups = telemetry.get("prob_hits", 0) + telemetry.get("prob_misses", 0)
    disjoint_calls = len(trace.named("routing.disjoint_paths"))
    # Client latency minus server time; only a served request has any.
    transport = (
        trace.self_sum("request") if trace.named("serve.execute") else 0.0
    )
    distinct = len(recorder.disjoint_inputs)
    return {
        "routing.decide_calls": recorder.counts.get("routing.decide_calls", 0),
        "routing.decide_self_s": trace.self_sum("routing.decide"),
        "routing.disjoint_paths_calls": disjoint_calls,
        "routing.disjoint_paths_s": trace.total("routing.disjoint_paths"),
        "routing.disjoint_paths_distinct_frac": (
            distinct / disjoint_calls if disjoint_calls else 0.0
        ),
        "routing.observed_adjacency_calls": len(
            trace.named("routing.observed_adjacency")
        ),
        "routing.observed_adjacency_s": trace.total("routing.observed_adjacency"),
        "reliability.classify_calls": len(trace.named("reliability.classify")),
        "reliability.classify_s": trace.total("reliability.classify"),
        "reliability.classify_cases": sum(trace.info("reliability.classify", "cases")),
        "reliability.classify_max_lossy": max(
            trace.info("reliability.classify", "lossy"), default=0
        ),
        "reliability.accumulate_calls": len(trace.named("reliability.accumulate")),
        "reliability.accumulate_rows": sum(
            trace.info("reliability.accumulate", "rows")
        ),
        "reliability.accumulate_s": trace.total("reliability.accumulate"),
        "interval.prob_lookups": lookups,
        "interval.prob_hit_frac": (
            telemetry.get("prob_hits", 0) / lookups if lookups else 0.0
        ),
        "interval.prob_mask_hits": telemetry.get("prob_mask_hits", 0),
        "interval.prob_shared_hits": telemetry.get("prob_shared_hits", 0),
        "interval.prob_evicted": telemetry.get("prob_evicted", 0),
        "interval.cache_self_s": trace.self_sum("interval.cache"),
        "timeline.boundaries": sum(trace.info("timeline.boundaries", "boundaries")),
        "timeline.views_s": sum(
            span.duration for span in spans.outermost(trace.spans, "timeline.views")
        ),
        "exec.plan_s": trace.total("exec.plan"),
        "exec.merge_s": trace.total("exec.merge"),
        "exec.shards_total": telemetry.get("shards_total", 0),
        "exec.shards_cached": telemetry.get("shards_cached", 0),
        "exec.cache_load_calls": len(trace.named("exec.cache_load")),
        "exec.cache_load_s": trace.total("exec.cache_load"),
        "exec.cache_store_calls": len(trace.named("exec.cache_store")),
        "exec.cache_store_s": trace.total("exec.cache_store"),
        "serve.execute_s": trace.total("serve.execute"),
        "serve.transport_s": transport,
        "serve.context_hits": unit.info.get("serve.context_hits", 0),
        "serve.context_misses": unit.info.get("serve.context_misses", 0),
        "serve.context_evictions": unit.info.get("serve.context_evictions", 0),
        "topogen.resolve_s": trace.setup_median("topogen.resolve"),
        "netmodel.timeline_s": trace.setup_median("netmodel.timeline"),
        "serve.start_s": trace.setup_median("serve.start"),
        "trace.unattributed_s": trace.self_sum("exec.replay"),
    }


# -- entry point ------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans-out")
    parser.add_argument(
        "--budget-s", type=float, default=0.0,
        help="keep working this long after the unit starts: more cached-"
        "phase cycles or serve epochs (0: a fixed minimum amount of work)",
    )
    args = parser.parse_args(argv)
    until = time.monotonic() + args.budget_s
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))

    hostclock.pin()
    recorder = spans.Recorder() if args.traced else None
    if recorder is not None:
        spans.install(recorder)
    unit = Unit(recorder)
    work = Path(args.work_dir)
    work.mkdir(parents=True, exist_ok=True)
    unit.add("host.calib_s", calibrate())
    try:
        if args.workload == workloads.SERVE:
            run_serve(unit, args.seed, work, expected, until)
        else:
            run_replay(unit, args.workload, args.seed, work, expected, until)
    except Exception as error:  # noqa: BLE001 - reported as a failed operation
        unit.attempted += 1
        unit.check(args.workload, [f"raised {error!r}"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    unit.add("host.calib_s", calibrate())
    unit.finish()
    unit.info["host.reference_s"] = unit.clock.median()
    output: dict[str, object] = {
        "samples": unit.samples,
        "raw": unit.raw,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": unit.attempted,
        "failed": unit.failed,
        "errors": unit.errors,
        "info": unit.info,
    }
    if recorder is not None:
        trace = _Trace(recorder)
        output["layers"] = layer_metrics(unit, trace)
        output["split"] = trace.split()
        if args.spans_out:
            recorder.write(Path(args.spans_out))
    print(json.dumps(output))
    return 0


if __name__ == "__main__":
    sys.exit(main())
