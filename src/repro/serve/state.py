"""Server-lifetime warm state: contexts, caches, and counters.

The point of serving evaluations from a daemon instead of a cold CLI
process is that the expensive per-trace state survives between requests:

* :class:`ContextCache` keeps :class:`~repro.exec.plan.ShardContext`
  objects -- the merged boundary list, per-boundary condition views, and
  the probability/mask-classification memo -- keyed by the execution
  engine's *context key* (topology + timeline + service + config), so a
  repeated or overlapping request reuses the warm memo instead of
  rebuilding it;
* one shared :class:`~repro.exec.cache.ResultCache` serves
  content-addressed shards across all requests;
* :class:`ServeRuntime` bundles the above with the reference topology
  and flow table so request sessions share a single source of truth.

Everything here is touched from request worker threads concurrently, so
the context cache is lock-protected and the probability memo inside each
context is itself thread-safe (one lock around lookup/insert/evict).
Keying contexts by the full context key is what keeps sharing bitwise
exact: two requests only share a memo when their deadline, detection
delay, and timeline are identical, and canonical-key sharing inside one
memo is exact by construction.
"""

from __future__ import annotations

import threading

from repro.core.graph import Topology
from repro.exec.cache import ResultCache
from repro.exec.hashing import context_key
from repro.exec.plan import ShardContext
from repro.netmodel.conditions import ConditionTimeline
from repro.netmodel.topology import FlowSpec, ServiceSpec
from repro.simulation.interval import _ProbabilityCache
from repro.simulation.results import ReplayConfig
from repro.topogen import Workload, resolve_workload
from repro.util.validation import require

__all__ = ["ContextCache", "ServeRuntime"]

class ContextCache:
    """LRU of warm :class:`ShardContext` objects, keyed by context key.

    ``get`` returns ``(context, warm)`` where ``warm`` says whether the
    context (and therefore its probability memo) was already resident.
    Building a context is expensive (one delta walk over the whole
    trace), so it happens outside the lock; when two threads race to
    build the same key, the first stored entry wins and both callers
    share it.
    """

    def __init__(self, capacity: int = 4) -> None:
        require(capacity >= 1, f"context capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: dict[str, ShardContext] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(
        self,
        topology: Topology,
        timeline: ConditionTimeline,
        service: ServiceSpec,
        config: ReplayConfig,
    ) -> tuple[ShardContext, bool]:
        """The warm context for these inputs, building it on first use."""
        key = context_key(topology, timeline, service, config)
        with self._lock:
            resident = self._entries.pop(key, None)
            if resident is not None:
                self._entries[key] = resident  # most recently used
                self.hits += 1
                return resident, True
        built = ShardContext(topology, timeline, service, config)
        with self._lock:
            existing = self._entries.pop(key, None)
            resident = existing if existing is not None else built
            self._entries[key] = resident
            self.misses += 1
            while len(self._entries) > self.capacity:
                oldest = next(iter(self._entries))
                del self._entries[oldest]
                self.evictions += 1
        return resident, existing is not None

    def counters(self) -> dict[str, int]:
        """Context-level counters plus entry count."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self._entries),
            }

    def prob_counters(self) -> dict[str, int]:
        """Probability-memo counters summed across resident contexts.

        Server-lifetime view of the warm memos' health: entries evicted
        with their context drop out of the sums, which is the honest
        reading -- their warmth is gone too.
        """
        with self._lock:
            contexts = list(self._entries.values())
        totals = dict.fromkeys(_ProbabilityCache.COUNTERS, 0)
        for context in contexts:
            for name, value in context.probability_cache.counters().items():
                totals[name] = totals.get(name, 0) + value
        return totals


class ServeRuntime:
    """Everything a request session needs, shared across requests."""

    def __init__(
        self,
        *,
        worker_budget: int = 0,
        context_capacity: int = 4,
        cache_dir: str | None = None,
        use_disk_cache: bool = True,
    ) -> None:
        require(worker_budget >= 0, "worker budget must be >= 0")
        self.worker_budget = worker_budget
        self._reference = resolve_workload()
        self.topology = self._reference.topology
        self.flows = self._reference.flows
        self.contexts = ContextCache(context_capacity)
        self.result_cache = ResultCache(cache_dir) if use_disk_cache else None

    def workload(
        self,
        family: str | None = None,
        size: int | None = None,
        seed: int | None = None,
    ) -> Workload:
        """Resolve a request's topology override to (topology, flows).

        Goes through :func:`repro.topogen.resolve_workload` -- the same
        registry the CLI uses -- so generated topologies are memoised
        across requests and unknown names fail with the one-line registry
        error.  The exec-layer context key fingerprints the full node and
        link set, so warm contexts for different topologies never collide.
        """
        return resolve_workload(family, size, seed)

    def select_flows(
        self, names: tuple[str, ...] | None, default: tuple[FlowSpec, ...] | None = None
    ) -> list[FlowSpec]:
        """Resolve flow names against the reference table (one-line error)."""
        return self._reference.select_flows(names, default)

    def cache_stats(self) -> dict[str, object]:
        """Server-lifetime cache counters (the ``serve.cache.*`` source)."""
        stats: dict[str, object] = {
            f"context_{name}": value
            for name, value in self.contexts.counters().items()
        }
        for name, value in self.contexts.prob_counters().items():
            stats[f"prob_{name}"] = value
        stats["disk_cache"] = self.result_cache is not None
        return stats
