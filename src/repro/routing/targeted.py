"""The paper's contribution: targeted-redundancy dissemination graphs.

Normal operation uses the two node-disjoint paths (cheap, good enough in
most cases -- claim C3).  When the detector classifies a problem:

* **middle problem** -- re-route: recompute two disjoint paths avoiding
  the degraded links (redundancy would not help; path selection does);
* **source problem** -- switch to the *precomputed* source-problem graph
  (packets leave the source over all its adjacent links);
* **destination problem** -- switch to the precomputed destination-problem
  graph (packets enter the destination over all its adjacent links);
* **both** -- the precomputed robust source+destination graph.

Problem graphs are precomputed at attach time so switching costs nothing
at detection time, exactly as the paper argues a deployable system must.
A hold-down keeps a problem graph installed briefly after the pattern
clears, riding out the bursty gaps within one underlying outage.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.algorithms import NoPathError, disjoint_paths
from repro.core.builders import (
    destination_problem_graph,
    k_disjoint_paths_graph,
    robust_source_destination_graph,
    source_problem_graph,
)
from repro.core.detection import ProblemClassifier, ProblemDetector, ProblemType
from repro.core.dgraph import DisseminationGraph
from repro.core.graph import Edge
from repro.netmodel.conditions import LinkState
from repro.routing import memo
from repro.routing.base import (
    RoutingPolicy,
    degraded_edge_set,
    observed_adjacency,
    timely_edge_latencies,
)
from repro.util.validation import require, require_non_negative

__all__ = ["TargetedRedundancyPolicy"]


class TargetedRedundancyPolicy(RoutingPolicy):
    """Two disjoint paths plus targeted redundancy on endpoint problems."""

    name = "targeted"

    def __init__(
        self,
        loss_threshold: float = 0.02,
        endpoint_link_threshold: int = 2,
        hold_down_s: float = 10.0,
        max_entry_links: int | None = None,
        max_exit_links: int | None = None,
        max_candidate_edges: int | None = None,
    ) -> None:
        super().__init__()
        require_non_negative(hold_down_s, "hold_down_s")
        require(
            max_entry_links is None or max_entry_links >= 1,
            "max_entry_links must be None or >= 1",
        )
        require(
            max_exit_links is None or max_exit_links >= 1,
            "max_exit_links must be None or >= 1",
        )
        require(
            max_candidate_edges is None or max_candidate_edges >= 2,
            "max_candidate_edges must be None or >= 2",
        )
        self.loss_threshold = loss_threshold
        self.endpoint_link_threshold = endpoint_link_threshold
        self.hold_down_s = hold_down_s
        self.max_entry_links = max_entry_links
        self.max_exit_links = max_exit_links
        # Beam cap on the re-route search: at most this many timely edges
        # are admitted as candidates (best through-latency first).  None
        # scales with the topology: max(64, 4 * nodes) -- never binding on
        # the 12-site reference overlay, bounding the disjoint-path search
        # to O(nodes) edges on the generated large meshes.
        self.max_candidate_edges = max_candidate_edges
        self._detector: ProblemDetector | None = None
        self._base_graph: DisseminationGraph | None = None
        self._problem_graphs: dict[ProblemType, DisseminationGraph] = {}
        self._middle_cache_key: object = None
        self._middle_cache_graph: DisseminationGraph | None = None
        # Sticky memory of recently degraded edges: edge -> last time seen
        # degraded.  Bursty outages flap faster than they heal; a link seen
        # lossy within the hold-down stays excluded from re-routing even
        # while it momentarily looks clean.
        self._recently_degraded: dict[Edge, float] = {}

    # -- lifecycle ------------------------------------------------------------

    def _on_attach(self) -> None:
        source, destination = self.flow.source, self.flow.destination
        self._base_graph = k_disjoint_paths_graph(
            self.topology, source, destination, k=2, name=f"{self.name}/base"
        )
        deadline = self.service.deadline_ms
        self._problem_graphs = {
            ProblemType.SOURCE: source_problem_graph(
                self.topology,
                source,
                destination,
                max_exit_links=self.max_exit_links,
                deadline_ms=deadline,
                name=f"{self.name}/source-problem",
            ),
            ProblemType.DESTINATION: destination_problem_graph(
                self.topology,
                source,
                destination,
                max_entry_links=self.max_entry_links,
                deadline_ms=deadline,
                name=f"{self.name}/destination-problem",
            ),
            ProblemType.SOURCE_AND_DESTINATION: robust_source_destination_graph(
                self.topology,
                source,
                destination,
                max_entry_links=self.max_entry_links,
                max_exit_links=self.max_exit_links,
                deadline_ms=deadline,
                name=f"{self.name}/robust",
            ),
        }
        self._detector = ProblemDetector(
            self.topology,
            source,
            destination,
            classifier=ProblemClassifier(
                loss_threshold=self.loss_threshold,
                endpoint_link_threshold=self.endpoint_link_threshold,
            ),
            hold_down_s=self.hold_down_s,
        )

    def reset(self) -> None:
        """Rebuild detector and caches for a fresh replay."""
        super().reset()
        if self._topology is not None:
            self._on_attach()  # rebuild detector state; graphs are pure
        self._middle_cache_key = None
        self._middle_cache_graph = None
        self._recently_degraded = {}

    # -- decisions ----------------------------------------------------------------

    @property
    def problem_graphs(self) -> dict[ProblemType, DisseminationGraph]:
        """The precomputed problem graphs (exposed for inspection/benches)."""
        return dict(self._problem_graphs)

    def _decide(
        self, now_s: float, observed: Mapping[Edge, LinkState]
    ) -> DisseminationGraph:
        assert self._detector is not None and self._base_graph is not None
        loss_rates = {
            edge: state.loss_rate
            for edge, state in observed.items()
            if state.loss_rate > 0.0
        }
        for edge in degraded_edge_set(observed, self.loss_threshold):
            self._recently_degraded[edge] = now_s
        problem = self._detector.update(now_s, loss_rates)
        if problem in self._problem_graphs:
            graph = self._problem_graphs[problem]
            # An endpoint problem can coincide with trouble in the middle
            # of the network.  The precomputed problem graph reaches each
            # endpoint-adjacent link over a single upstream path; if one of
            # those paths is itself degraded (or latency-inflated), union
            # in the timely re-route so copies also travel around the
            # middle trouble.  Rare, so the cost impact is negligible.
            sticky = self._sticky_degraded(now_s)
            source, destination = self.flow.source, self.flow.destination
            middle_trouble = {
                edge
                for edge in graph.edges
                if source not in edge and destination not in edge
            }
            inflated = {
                edge
                for edge, state in observed.items()
                if state.extra_latency_ms > 0.0
            }
            if middle_trouble & (sticky | inflated):
                reroute = self._middle_reroute(now_s, observed)
                graph = graph.union(reroute, name=graph.name)
            return graph
        if problem is ProblemType.MIDDLE:
            return self._middle_reroute(now_s, observed)
        return self._base_graph

    @property
    def candidate_cap(self) -> int:
        """The effective beam cap (resolves the node-count-scaled default)."""
        if self.max_candidate_edges is not None:
            return self.max_candidate_edges
        return max(64, 4 * self.topology.num_nodes)

    def _candidate_edges(self, observed: Mapping[Edge, LinkState]) -> frozenset[Edge]:
        """Timely candidate edges for re-routing, beam-capped at scale."""
        return memo.mask_edges(self.topology, self._candidate_mask(observed))

    def _candidate_mask(self, observed: Mapping[Edge, LinkState]) -> int:
        """:meth:`_candidate_edges` as an edge bitmask (:mod:`repro.routing.memo`).

        This is the targeted search's hot spot on large topologies (two
        Dijkstra passes over the full mesh plus a disjoint-path search
        over the surviving edges), so it is the one place the policy
        reports to :mod:`repro.obs`: a ``routing.targeted.candidates``
        span and considered/kept counters.  When more edges are timely
        than the cap admits, the best by through-latency win (ties by
        edge name) -- pruning the longest detours first, which are the
        edges a deadline-meeting disjoint pair is least likely to use.
        The set depends only on what the through-latency map depends on,
        plus the deadline and the cap, and is memoized on exactly those.
        """
        obs = self.obs
        start_s = obs.tracer.now() if obs is not None else 0.0
        topology = self.topology
        source, destination = self.flow.source, self.flow.destination
        deadline = self.service.deadline_ms
        cap = self.candidate_cap

        def rank() -> tuple[int, int]:
            through = timely_edge_latencies(topology, observed, source, destination)
            timely = [edge for edge, ms in through.items() if ms <= deadline]
            if len(timely) > cap:
                timely.sort(key=lambda edge: (through[edge], edge))
                return memo.edge_mask(topology, timely[:cap]), len(timely)
            return memo.edge_mask(topology, timely), len(timely)

        kept_mask, considered = memo.cached(
            memo.latency_key(
                "candidates", topology, observed, source, destination, deadline, cap
            ),
            rank,
        )
        if obs is not None:
            kept = kept_mask.bit_count()
            metrics = obs.metrics
            metrics.counter("routing.targeted.candidates.considered").inc(
                considered
            )
            metrics.counter("routing.targeted.candidates.kept").inc(kept)
            if considered > kept:
                metrics.counter("routing.targeted.candidates.pruned").inc(
                    considered - kept
                )
            obs.tracer.complete(
                "targeted.candidates",
                "routing",
                start_s,
                obs.tracer.now(),
                flow=self.flow.name,
                considered=considered,
                kept=kept,
                cap=cap,
            )
        return kept_mask

    def _sticky_degraded(self, now_s: float) -> frozenset[Edge]:
        """Edges seen degraded within the hold-down window."""
        horizon = now_s - self.hold_down_s
        stale = [e for e, seen in self._recently_degraded.items() if seen < horizon]
        for edge in stale:
            del self._recently_degraded[edge]
        return frozenset(self._recently_degraded)

    def _middle_reroute(
        self, now_s: float, observed: Mapping[Edge, LinkState]
    ) -> DisseminationGraph:
        """Two disjoint *timely* paths avoiding recently degraded links.

        Unlike the plain dynamic scheme, the exclusion set is sticky (a
        link seen lossy during this episode stays excluded through the
        burst gaps) and the search is restricted to edges that can still
        meet the deadline at observed latencies.
        """
        degraded = self._sticky_degraded(now_s)
        timely = self._candidate_mask(observed)
        inflated = tuple(
            sorted(
                (edge, state.extra_latency_ms)
                for edge, state in observed.items()
                if state.extra_latency_ms > 0.0
            )
        )
        cache_key = (degraded, timely, inflated)
        if cache_key == self._middle_cache_key and self._middle_cache_graph:
            return self._middle_cache_graph
        topology = self.topology
        source, destination = self.flow.source, self.flow.destination
        not_timely = memo.full_mask(topology) & ~timely
        paths = memo.disjoint(
            disjoint_paths, observed_adjacency, topology, observed,
            source, destination, 2,
            exclude=memo.edge_mask(topology, degraded) | not_timely,
        )
        if len(paths) < 2 and not_timely:
            # No clean timely pair: re-admit lossy-but-timely edges with a
            # loss surcharge so the pairing maximises cleanliness.
            paths = memo.disjoint(
                disjoint_paths, observed_adjacency, topology, observed,
                source, destination, 2, exclude=not_timely, penalize_loss=True,
            )
        if len(paths) < 2:
            # Deadline unmeetable on two paths: best effort over everything.
            paths = memo.disjoint(
                disjoint_paths, observed_adjacency, topology, observed,
                source, destination, 2, penalize_loss=True,
            )
        if not paths:  # pragma: no cover - topology is connected by contract
            raise NoPathError(source, destination)
        graph = DisseminationGraph.from_paths(paths, name=f"{self.name}/reroute")
        self._middle_cache_key = cache_key
        self._middle_cache_graph = graph
        return graph
