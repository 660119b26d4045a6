"""Dynamic path-selection schemes.

``dynamic-single`` re-selects the lowest-latency path avoiding links it
believes are degraded -- the behaviour of a responsive link-state routing
protocol on the overlay.  ``dynamic-two-disjoint`` does the same for a
pair of node-disjoint paths.

Both fall back gracefully when avoiding every degraded link would
disconnect (or de-pair) the flow: degraded links are then re-admitted with
a loss-proportional latency surcharge, so the least-lossy unavoidable
option is used rather than giving up.

Decisions are cached on the observed degraded-edge fingerprint: replay
engines call ``update`` at every segment boundary, and most boundaries do
not change the relevant view.  The path searches behind a changed
fingerprint go through :mod:`repro.routing.memo`, shared with every other
flow and scheme.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.algorithms import NoPathError, disjoint_paths, shortest_path
from repro.core.dgraph import DisseminationGraph
from repro.core.graph import Edge
from repro.netmodel.conditions import LinkState
from repro.routing import memo
from repro.routing.base import (
    RoutingPolicy,
    degraded_edge_set,
    observed_adjacency,
)
from repro.util.validation import require, require_probability

__all__ = ["DynamicSinglePathPolicy", "DynamicTwoDisjointPolicy"]


class _DynamicPolicyBase(RoutingPolicy):
    """Shared caching and fingerprinting for the dynamic schemes."""

    def __init__(self, loss_threshold: float = 0.02) -> None:
        super().__init__()
        require_probability(loss_threshold, "loss_threshold")
        self.loss_threshold = loss_threshold
        self._cache_key: object = None
        self._cache_graph: DisseminationGraph | None = None
        self._relevant_edges: frozenset[Edge] = frozenset()

    def reset(self) -> None:
        """Clear temporal and cache state for a fresh replay."""
        super().reset()
        self._cache_key = None
        self._cache_graph = None
        self._relevant_edges = frozenset()

    def _fingerprint(self, observed: Mapping[Edge, LinkState]) -> object:
        """What the decision depends on: degraded set + latency inflations."""
        degraded = degraded_edge_set(observed, self.loss_threshold)
        inflations = tuple(
            sorted(
                (edge, state.extra_latency_ms)
                for edge, state in observed.items()
                if state.extra_latency_ms > 0.0
            )
        )
        return (degraded, inflations)

    def _delta_is_irrelevant(
        self, changed: frozenset[Edge], observed: Mapping[Edge, LinkState]
    ) -> bool:
        """Can the changed edges possibly alter the fingerprint?

        The fingerprint reads an edge only when it is degraded (loss at or
        above the threshold) or latency-inflated.  A changed edge that was
        in neither group of the cached fingerprint and still is in neither
        contributes nothing before or after -- so the fingerprint, and
        therefore the decision, is unchanged.
        """
        if changed & self._relevant_edges:
            return False
        for edge in changed:
            state = observed.get(edge)
            if state is not None and (
                state.loss_rate >= self.loss_threshold
                or state.extra_latency_ms > 0.0
            ):
                return False
        return True

    def _decide(
        self, now_s: float, observed: Mapping[Edge, LinkState]
    ) -> DisseminationGraph:
        changed = self._observed_changed
        if (
            changed is not None
            and self._cache_graph is not None
            and self._delta_is_irrelevant(changed, observed)
        ):
            return self._cache_graph
        key = self._fingerprint(observed)
        if key != self._cache_key or self._cache_graph is None:
            self._cache_graph = self._recompute(observed, key[0])
            self._cache_key = key
            self._relevant_edges = key[0].union(
                edge for edge, _extra in key[1]
            )
        return self._cache_graph

    def _recompute(
        self, observed: Mapping[Edge, LinkState], degraded: frozenset[Edge]
    ) -> DisseminationGraph:
        raise NotImplementedError


class DynamicSinglePathPolicy(_DynamicPolicyBase):
    """Lowest-latency single path avoiding believed-degraded links."""

    name = "dynamic-single"

    def _recompute(
        self, observed: Mapping[Edge, LinkState], degraded: frozenset[Edge]
    ) -> DisseminationGraph:
        topology = self.topology
        source, destination = self.flow.source, self.flow.destination
        try:
            path = memo.shortest(
                shortest_path, observed_adjacency, topology, observed,
                source, destination, exclude=memo.edge_mask(topology, degraded),
            )
        except NoPathError:
            # Unavoidable loss: pick the least-lossy path instead.
            path = memo.shortest(
                shortest_path, observed_adjacency, topology, observed,
                source, destination, penalize_loss=True,
            )
        return DisseminationGraph.from_path(path, name=self.name)


class DynamicTwoDisjointPolicy(_DynamicPolicyBase):
    """Re-selected pair of node-disjoint paths avoiding degraded links."""

    name = "dynamic-two-disjoint"

    def __init__(self, loss_threshold: float = 0.02, k: int = 2) -> None:
        super().__init__(loss_threshold)
        require(k >= 1, f"k must be >= 1, got {k}")
        self.k = k
        if k != 2:
            words = {3: "three"}
            self.name = f"dynamic-{words.get(k, k)}-disjoint"

    def _recompute(
        self, observed: Mapping[Edge, LinkState], degraded: frozenset[Edge]
    ) -> DisseminationGraph:
        topology = self.topology
        source, destination = self.flow.source, self.flow.destination
        paths = memo.disjoint(
            disjoint_paths, observed_adjacency, topology, observed,
            source, destination, self.k, exclude=memo.edge_mask(topology, degraded),
        )
        if len(paths) < self.k:
            # Not enough clean disjoint paths: re-admit lossy links with a
            # surcharge so the pairing maximises cleanliness first.
            paths = memo.disjoint(
                disjoint_paths, observed_adjacency, topology, observed,
                source, destination, self.k, penalize_loss=True,
            )
        if not paths:  # pragma: no cover - topology is connected by contract
            raise NoPathError(source, destination)
        return DisseminationGraph.from_paths(paths, name=self.name)
