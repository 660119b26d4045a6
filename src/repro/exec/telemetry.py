"""Executor telemetry: what ran where, and how long it took.

Every engine invocation produces one :class:`ExecTelemetry` record and
appends it to the *current* :class:`TelemetrySession`, so entry points
that run many replays (the bench suite, seed sweeps) can print one
aggregate summary at the end -- shards run vs. served from cache,
retries, serial fallbacks, wall time, and worker utilization.

Sessions are scoped, not process-global: the default session covers the
whole process (the historical behaviour), while :func:`telemetry_session`
installs a fresh session for the current context.  The current session
lives in a :mod:`contextvars` variable, so concurrently running requests
(the ``repro serve`` daemon runs each request under its own session via
``asyncio.to_thread``, which copies the context) record into disjoint
registers -- ``session_totals`` never bleeds counts between requests.
A plain ``threading.Thread`` starts from an empty context and therefore
records into the process-wide default session unless the thread enters
``telemetry_session`` itself.
"""

from __future__ import annotations

import contextvars
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from repro.routing import memo
from repro.simulation import kernel
from repro.util.tables import render_table

__all__ = [
    "ExecTelemetry",
    "TelemetrySession",
    "aggregate_telemetry",
    "counter_snapshot",
    "current_session",
    "process_counters",
    "record",
    "reset_session",
    "session_records",
    "session_summary",
    "session_totals",
    "telemetry_session",
]


#: Replay-counter families: the prefix a family's counters carry in
#: :attr:`ExecTelemetry.counters` and ``to_dict()``, mapped to the obs
#: metric namespace and the summary-table label they appear under.
_FAMILIES = {
    "prob": ("exec.prob_cache", "prob-cache"),
    "kernel": ("replay.kernel", "kernel"),
    "route": ("routing.memo", "route-memo"),
}


def _flatten(sources: Mapping[str, Mapping[str, float]]) -> dict[str, float]:
    return {
        f"{family}_{name}": value
        for family, source in sources.items()
        for name, value in source.items()
    }


def process_counters() -> dict[str, float]:
    """The process-wide replay counters right now, keyed ``<family>_<name>``.

    The kernel's (:func:`repro.simulation.kernel.counters`) and the
    routing memo's (:func:`repro.routing.memo.counters`): one set per
    process, shared by every replay and serve request in it.
    """
    return _flatten({"kernel": kernel.counters(), "route": memo.counters()})


def counter_snapshot(probability_cache) -> dict[str, float]:
    """Every replay counter right now, keyed ``<family>_<name>``.

    The sources name their own counters -- the context's probability
    memo (``_ProbabilityCache.counters()``) and the process-wide ones of
    :func:`process_counters` -- so a counter added at its source reaches
    telemetry, manifests and metrics with no edit anywhere downstream.
    """
    return {
        **_flatten({"prob": probability_cache.counters()}),
        **process_counters(),
    }


def _describe(key: str) -> tuple[str, str, str]:
    """``(metric namespace, summary label, counter name)`` of a key."""
    family, _, name = key.partition("_")
    namespace, label = _FAMILIES[family]
    return namespace, label, name


@dataclass
class ExecTelemetry:
    """Counters and timings of one execution-engine invocation.

    ``counters`` holds the summed per-shard deltas of every replay
    counter (see :func:`counter_snapshot`), keyed ``<family>_<name>``
    (``prob_hits``, ``kernel_vector_rows``, ``route_evicted``, ...).
    """

    label: str = "replay"
    workers: int = 0
    time_shards: int = 1
    shards_total: int = 0
    shards_run: int = 0
    shards_cached: int = 0
    shards_retried: int = 0
    shards_fallback: int = 0
    cache_corrupt: int = 0
    cache_evicted: int = 0
    kernel_backend: str = "pure"
    wall_time_s: float = 0.0
    shard_wall_s: list[float] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)

    def add_counters(self, delta: Mapping[str, float]) -> None:
        """Fold one shard's (or one run's) counter deltas in."""
        for name, value in delta.items():
            self.counters[name] = self.counters.get(name, 0) + value

    def counter_metrics(self) -> dict[str, float]:
        """``counters`` under their obs metric names."""
        metrics = {}
        for key, value in self.counters.items():
            namespace, _label, name = _describe(key)
            metrics[f"{namespace}.{name}"] = value
        return metrics

    @property
    def prob_hit_rate(self) -> float:
        """In-memory probability-cache hit rate over degraded lookups."""
        hits = self.counters.get("prob_hits", 0)
        lookups = hits + self.counters.get("prob_misses", 0)
        return hits / lookups if lookups else 0.0

    @property
    def busy_s(self) -> float:
        """Total shard compute time (summed across workers)."""
        return sum(self.shard_wall_s)

    @property
    def utilization(self) -> float:
        """Busy time over wall time x worker slots (1.0 = fully busy)."""
        slots = max(self.workers, 1)
        if self.wall_time_s <= 0.0:
            return 0.0
        return self.busy_s / (self.wall_time_s * slots)

    def _counter_rows(self) -> list[list[str]]:
        rows = []
        for key, value in self.counters.items():
            _namespace, label, name = _describe(key)
            if name.endswith("_s"):
                text = f"{name[:-2].replace('_', ' ')} time"
                rows.append([f"{label} {text}", f"{value:.2f} s"])
            else:
                rows.append([f"{label} {name.replace('_', ' ')}", str(value)])
        return rows

    def _rows(self) -> list[list[object]]:
        executed = self.shards_run + self.shards_fallback
        max_shard = max(self.shard_wall_s) if self.shard_wall_s else 0.0
        mean_shard = self.busy_s / executed if executed else 0.0
        return [
            ["shards total", str(self.shards_total)],
            ["shards run", str(self.shards_run)],
            ["shards cached", str(self.shards_cached)],
            ["shards retried", str(self.shards_retried)],
            ["serial fallbacks", str(self.shards_fallback)],
            ["corrupt cache entries", str(self.cache_corrupt)],
            ["cache entries evicted", str(self.cache_evicted)],
            *self._counter_rows(),
            ["prob-cache hit rate", f"{100.0 * self.prob_hit_rate:.0f} %"],
            ["kernel backend", self.kernel_backend],
            ["workers", str(self.workers) if self.workers else "serial"],
            ["wall time", f"{self.wall_time_s:.2f} s"],
            ["shard time (mean/max)", f"{mean_shard:.2f} / {max_shard:.2f} s"],
            ["worker utilization", f"{100.0 * self.utilization:.0f} %"],
        ]

    def summary_table(self) -> str:
        """The telemetry record as an aligned two-column table."""
        return render_table(
            ("execution engine", self.label),
            self._rows(),
        )

    def to_dict(self) -> dict[str, object]:
        """JSON-ready form (embedded in run manifests and bench output)."""
        executed = self.shards_run + self.shards_fallback
        return {
            "label": self.label,
            "workers": self.workers,
            "time_shards": self.time_shards,
            "shards_total": self.shards_total,
            "shards_run": self.shards_run,
            "shards_cached": self.shards_cached,
            "shards_retried": self.shards_retried,
            "shards_fallback": self.shards_fallback,
            "cache_corrupt": self.cache_corrupt,
            "cache_evicted": self.cache_evicted,
            **self.counters,
            "prob_hit_rate": self.prob_hit_rate,
            "kernel_backend": self.kernel_backend,
            "wall_time_s": self.wall_time_s,
            "busy_s": self.busy_s,
            "max_shard_s": max(self.shard_wall_s) if self.shard_wall_s else 0.0,
            "mean_shard_s": self.busy_s / executed if executed else 0.0,
            "utilization": self.utilization,
        }


# -- session aggregation ---------------------------------------------------------


def aggregate_telemetry(
    records: Sequence[ExecTelemetry], label: str | None = None
) -> ExecTelemetry | None:
    """Every counter summed across ``records``, or ``None`` when empty.

    Cache-health counters (``cache_corrupt``/``cache_evicted``) are
    aggregated along with the shard counters, so a corruption observed in
    any run of the session survives into the aggregate record.
    """
    if not records:
        return None
    total = ExecTelemetry(
        label=label or f"session ({len(records)} runs)",
        workers=max(t.workers for t in records),
        time_shards=max(t.time_shards for t in records),
        kernel_backend=records[-1].kernel_backend,
    )
    for telemetry in records:
        total.shards_total += telemetry.shards_total
        total.shards_run += telemetry.shards_run
        total.shards_cached += telemetry.shards_cached
        total.shards_retried += telemetry.shards_retried
        total.shards_fallback += telemetry.shards_fallback
        total.cache_corrupt += telemetry.cache_corrupt
        total.cache_evicted += telemetry.cache_evicted
        total.add_counters(telemetry.counters)
        total.wall_time_s += telemetry.wall_time_s
        total.shard_wall_s.extend(telemetry.shard_wall_s)
    return total


class TelemetrySession:
    """One scope of engine invocations (a process, or one served request).

    Appends are lock-protected: one session may legitimately receive
    records from several threads (a request that fans out replays).
    """

    def __init__(self, label: str = "session") -> None:
        self.label = label
        self._records: list[ExecTelemetry] = []
        self._lock = threading.Lock()

    def add(self, telemetry: ExecTelemetry) -> None:
        with self._lock:
            self._records.append(telemetry)

    def records(self) -> Sequence[ExecTelemetry]:
        with self._lock:
            return tuple(self._records)

    def clear(self) -> None:
        with self._lock:
            self._records.clear()

    def totals(self) -> ExecTelemetry | None:
        """Aggregate record over this session's invocations, or ``None``."""
        records = self.records()
        return aggregate_telemetry(
            records, label=f"{self.label} ({len(records)} runs)"
        )


#: The process-wide default session (the historical register).
_DEFAULT_SESSION = TelemetrySession("session")

_CURRENT_SESSION: contextvars.ContextVar[TelemetrySession] = (
    contextvars.ContextVar("exec_telemetry_session", default=_DEFAULT_SESSION)
)


def current_session() -> TelemetrySession:
    """The session engine invocations record into in this context."""
    return _CURRENT_SESSION.get()


@contextmanager
def telemetry_session(label: str = "session") -> Iterator[TelemetrySession]:
    """Scope a fresh session to the current context.

    Engine invocations inside the ``with`` block (including work handed
    to ``asyncio.to_thread``, which copies the context) record into the
    yielded session instead of the enclosing one.
    """
    session = TelemetrySession(label)
    token = _CURRENT_SESSION.set(session)
    try:
        yield session
    finally:
        _CURRENT_SESSION.reset(token)


def record(telemetry: ExecTelemetry) -> None:
    """Append one engine invocation to the current session's register."""
    current_session().add(telemetry)


def session_records() -> Sequence[ExecTelemetry]:
    """All engine invocations recorded so far in the current session."""
    return current_session().records()


def reset_session() -> None:
    """Forget the current session's records (tests and long sessions)."""
    current_session().clear()


def session_totals() -> ExecTelemetry | None:
    """Every counter summed across the current session, or ``None``."""
    return current_session().totals()


def session_summary() -> str | None:
    """One aggregate table over every recorded invocation, or ``None``."""
    total = session_totals()
    return None if total is None else total.summary_table()
