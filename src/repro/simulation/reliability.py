"""Exact on-time delivery probability for a dissemination graph.

Within a constant-conditions window, each edge of a graph independently
delivers a given packet copy with probability ``1 - loss``.  The packet is
delivered on time iff the surviving subgraph contains a source->destination
path whose latency (current effective latencies) is within the deadline.

The computation conditions on the *uncertain* edges only: edges with zero
loss always survive, edges with 100% loss never do, and the remaining
``L`` lossy edges are enumerated (``2^L`` cases).  Real problem episodes
degrade a handful of links, so ``L`` stays small; a hard cap protects
against pathological inputs.

``delivery_probabilities`` returns both the on-time probability and the
delivered-eventually probability, which the result layer splits into
*lost* (never delivered) versus *late* (delivered past the deadline).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.dgraph import DisseminationGraph
from repro.core.graph import Edge, NodeId
from repro.simulation import kernel
from repro.util.validation import fail

__all__ = [
    "DeliveryProbabilities",
    "MaskClassification",
    "RecoveryClassification",
    "ReliabilityLimitError",
    "accumulate_mask_probabilities",
    "accumulate_mask_probabilities_batch",
    "accumulate_recovery_probabilities",
    "accumulate_recovery_probabilities_batch",
    "classify_delivery_masks",
    "classify_recovery_states",
    "delivery_probabilities",
    "delivery_probabilities_with_recovery",
    "on_time_probability",
]

_INF = float("inf")

#: Maximum number of uncertain edges enumerated exactly.  2^20 subgraph
#: evaluations on a <50-edge graph is ~1s of CPU; anything beyond signals
#: a scenario far denser than real traces and is rejected loudly.
MAX_EXACT_LOSSY_EDGES = 20


class ReliabilityLimitError(RuntimeError):
    """Too many simultaneously lossy edges for exact enumeration."""


@dataclass(frozen=True)
class DeliveryProbabilities:
    """Per-packet delivery probabilities during one constant window."""

    on_time: float
    eventually: float

    def __post_init__(self) -> None:
        if not -1e-9 <= self.on_time <= self.eventually + 1e-9:
            fail(
                f"inconsistent probabilities: on_time={self.on_time}, "
                f"eventually={self.eventually}"
            )

    @property
    def late(self) -> float:
        """Delivered, but past the deadline."""
        return max(0.0, self.eventually - self.on_time)

    @property
    def lost(self) -> float:
        """Never delivered at all."""
        return max(0.0, 1.0 - self.eventually)


#: Per-mask outcome codes in :attr:`MaskClassification.classes`.
_MASK_LOST = 0
_MASK_LATE = 1
_MASK_ON_TIME = 2


@dataclass(frozen=True)
class MaskClassification:
    """The loss-value-independent core of :func:`delivery_probabilities`.

    Which enumeration cases arrive on time / at all depends only on the
    graph structure, the effective latencies and *which* edges are lossy
    (or dead) -- never on the fractional loss values themselves, which
    only weight the cases.  Splitting the computation lets the replay
    engine reuse one classification across every window that differs
    only in loss rates (the dominant kind of condition change in real
    traces), skipping the entire ``2^L`` Dijkstra enumeration.

    ``certain`` short-circuits the fast paths whose outcome is decided
    regardless of the lossy edges' loss values; otherwise ``classes[m]``
    holds the outcome code of enumeration case ``m`` (bit ``b`` of ``m``
    = lossy edge ``lossy_slots[b]`` survives) and ``best_on_time``
    records whether the all-survive case met the deadline (the numerical
    hygiene cap of the accumulation).
    """

    certain: DeliveryProbabilities | None
    lossy_slots: tuple[int, ...] = ()
    classes: bytes = b""
    best_on_time: bool = False


def classify_delivery_masks(
    graph: DisseminationGraph,
    deadline_ms: float,
    latency_of: Callable[[Edge], float],
    loss_of: Callable[[Edge], float],
    max_lossy_edges: int = MAX_EXACT_LOSSY_EDGES,
) -> tuple[MaskClassification, list[float]]:
    """Classify every lossy-edge enumeration case of ``graph``.

    Returns the classification plus the loss values read for the lossy
    slots (in slot order), so :func:`accumulate_mask_probabilities` can
    finish the computation without consulting ``loss_of`` again.
    """
    if not deadline_ms > 0:
        fail(f"deadline must be positive, got {deadline_ms}")
    edges, rank, adjacency = _index_graph(graph)
    latencies: list[float] = []
    present: list[bool] = []
    lossy_slots: list[int] = []
    losses: list[float] = []
    for slot, edge in enumerate(edges):
        loss = loss_of(edge)
        if not 0.0 <= loss <= 1.0:
            fail(f"loss out of range on {edge!r}: {loss}")
        latency = latency_of(edge)
        if not latency >= 0.0:
            fail(f"negative latency on {edge!r}: {latency}")
        latencies.append(latency)
        # Certain edges: zero loss always survives, total loss never does;
        # fractional-loss slots are toggled during enumeration.
        present.append(loss <= 0.0)
        if 0.0 < loss < 1.0:
            lossy_slots.append(slot)
            losses.append(loss)
    if len(lossy_slots) > max_lossy_edges:
        raise ReliabilityLimitError(
            f"{len(lossy_slots)} lossy edges exceed the exact-enumeration cap "
            f"({max_lossy_edges})"
        )

    source, destination = rank[graph.source], rank[graph.destination]

    # Fast path: all certain edges surviving already decides both outcomes.
    baseline = _earliest_arrival_indexed(
        source, destination, adjacency, latencies, present
    )
    if baseline <= deadline_ms:
        certain = DeliveryProbabilities(on_time=1.0, eventually=1.0)
        return MaskClassification(certain=certain), losses
    if not lossy_slots:
        # Past the fast-path return above, ``baseline > deadline_ms``
        # always holds: the certain subgraph delivers late or never.
        eventually = 1.0 if baseline < _INF else 0.0
        certain = DeliveryProbabilities(on_time=0.0, eventually=eventually)
        return MaskClassification(certain=certain), losses

    # Fast path the other way: even with every lossy edge surviving the
    # packet cannot arrive (e.g. deadline impossible) -- probability 0.
    for slot in lossy_slots:
        present[slot] = True
    best_case = _earliest_arrival_indexed(
        source, destination, adjacency, latencies, present
    )
    if not best_case < _INF:
        certain = DeliveryProbabilities(on_time=0.0, eventually=0.0)
        return MaskClassification(certain=certain), losses
    best_on_time = best_case <= deadline_ms

    count = len(lossy_slots)
    classes = bytearray(1 << count)
    for mask in range(1 << count):
        for bit, slot in enumerate(lossy_slots):
            present[slot] = bool(mask >> bit & 1)
        arrival = _earliest_arrival_indexed(
            source, destination, adjacency, latencies, present
        )
        if arrival <= deadline_ms:
            classes[mask] = _MASK_ON_TIME
        elif arrival < _INF:
            classes[mask] = _MASK_LATE
    classification = MaskClassification(
        certain=None,
        lossy_slots=tuple(lossy_slots),
        classes=bytes(classes),
        best_on_time=best_on_time,
    )
    return classification, losses


def _finalize_mask_totals(
    classification: MaskClassification, totals: tuple[float, float]
) -> DeliveryProbabilities:
    """Shared finalization: best-case hygiene zeroing plus the clamps."""
    on_time_total, eventually_total = totals
    if not classification.best_on_time:
        on_time_total = 0.0  # numerical hygiene: cannot exceed best case
    return DeliveryProbabilities(
        on_time=min(1.0, on_time_total), eventually=min(1.0, eventually_total)
    )


def accumulate_mask_probabilities(
    classification: MaskClassification, losses: list[float]
) -> DeliveryProbabilities:
    """Weight a classification by the lossy edges' current loss values.

    ``losses`` aligns with ``classification.lossy_slots``.  The
    arithmetic runs on the active :mod:`repro.simulation.kernel`
    backend: the pure path performs the identical float-operation
    sequence as the historical fused loop (same per-mask multiply order,
    same mask order, same final clamps), so reusing a cached
    classification is bitwise-exact; the numpy path agrees up to
    summation reassociation (see the kernel module docstring).
    """
    if classification.certain is not None:
        return classification.certain
    return _finalize_mask_totals(
        classification, kernel.mask_totals(classification.classes, losses)
    )


def accumulate_mask_probabilities_batch(
    classification: MaskClassification, losses_rows: Sequence[Sequence[float]]
) -> list[DeliveryProbabilities]:
    """One accumulation call for many loss vectors of one classification.

    The replay engine feeds whole runs of loss-only windows through this
    entry point so the vector backend builds a single weight matrix for
    the run; row ``i`` equals ``accumulate_mask_probabilities(c,
    rows[i])`` bitwise on either backend (the kernel's batch contract).
    """
    if classification.certain is not None:
        return [classification.certain] * len(losses_rows)
    return [
        _finalize_mask_totals(classification, totals)
        for totals in kernel.mask_totals_batch(
            classification.classes, losses_rows
        )
    ]


def _index_graph(
    graph: DisseminationGraph,
) -> tuple[tuple[Edge, ...], dict[NodeId, int], list[list[tuple[int, int]]]]:
    """Compile a graph to rank-indexed adjacency lists for the enumeration.

    Nodes are relabeled to their rank in sorted-name order; edges keep
    their :meth:`DisseminationGraph.sorted_edges` position as a *slot*
    into parallel latency/presence arrays.  Because the relabeling is
    monotone in node-name order, the enumeration below performs the very
    same float operations in the very same order as the historical
    name-keyed dictionaries did (edge iteration order and Dijkstra heap
    tie-breaks both follow the sort order) -- only the interpreter-level
    cost of hashing strings is gone.  This is the replay engine's single
    hottest code path.
    """
    edges = graph.sorted_edges()
    rank = {node: position for position, node in enumerate(sorted(graph.nodes))}
    adjacency: list[list[tuple[int, int]]] = [[] for _ in rank]
    for slot, (u, v) in enumerate(edges):
        adjacency[rank[u]].append((rank[v], slot))
    return edges, rank, adjacency


def _earliest_arrival_indexed(
    source: int,
    destination: int,
    adjacency: list[list[tuple[int, int]]],
    latency: list[float],
    present: list[bool],
) -> float:
    """Dijkstra over the slots marked present; returns arrival or inf.

    Bitwise-equal to the historical name-keyed-dictionary Dijkstra: the
    rank relabeling preserves heap tie-break order, so the arithmetic is
    literally the same sequence of float additions and comparisons.
    """
    best = [_INF] * len(adjacency)
    best[source] = 0.0
    heap = [(0.0, source)]
    pop = heapq.heappop
    push = heapq.heappush
    while heap:
        time_now, node = pop(heap)
        if node == destination:
            return time_now
        if time_now > best[node]:
            continue
        for neighbor, slot in adjacency[node]:
            if not present[slot]:
                continue
            candidate = time_now + latency[slot]
            if candidate < best[neighbor]:
                best[neighbor] = candidate
                push(heap, (candidate, neighbor))
    return best[destination]


@dataclass(frozen=True)
class RecoveryClassification:
    """Loss-value-independent core of the hop-recovery engine.

    The ternary analogue of :class:`MaskClassification`: ``classes[c]``
    holds the outcome code of recovery state ``c``, whose base-3 digit
    ``p`` (least significant first) is the state of lossy edge
    ``lossy_slots[p]`` -- 0 fast, 1 recovered (slow copy), 2 dead.
    Which states deliver on time depends only on the graph structure and
    the fast/slow latencies, so the replay engine caches this across
    loss-only condition changes exactly like the binary engine.
    """

    certain: DeliveryProbabilities | None
    lossy_slots: tuple[int, ...] = ()
    classes: bytes = b""


def classify_recovery_states(
    graph: DisseminationGraph,
    deadline_ms: float,
    latency_of: Callable[[Edge], float],
    loss_of: Callable[[Edge], float],
    recovery_latency_of: Callable[[Edge], float],
    max_lossy_edges: int = 11,
) -> tuple[RecoveryClassification, list[float]]:
    """Classify every ternary recovery state of ``graph``.

    Returns the classification plus the lossy slots' loss values (in
    slot order) so :func:`accumulate_recovery_probabilities` can finish
    without consulting ``loss_of`` again.
    """
    if not deadline_ms > 0:
        fail(f"deadline must be positive, got {deadline_ms}")
    edges, rank, adjacency = _index_graph(graph)
    latency: list[float] = []
    present: list[bool] = []
    lossy: list[tuple[int, float]] = []
    for slot, edge in enumerate(edges):
        loss = loss_of(edge)
        if not 0.0 <= loss <= 1.0:
            fail(f"loss out of range on {edge!r}: {loss}")
        latency.append(latency_of(edge))
        # Zero loss always survives; total loss never does (even the
        # retransmission is lost: permanently dead).
        present.append(loss <= 0.0)
        if 0.0 < loss < 1.0:
            lossy.append((slot, loss))
    if len(lossy) > max_lossy_edges:
        raise ReliabilityLimitError(
            f"{len(lossy)} lossy edges exceed the recovery-enumeration cap "
            f"({max_lossy_edges})"
        )
    source, destination = rank[graph.source], rank[graph.destination]
    baseline = _earliest_arrival_indexed(
        source, destination, adjacency, latency, present
    )
    losses = [loss for _slot, loss in lossy]
    if baseline <= deadline_ms:
        certain = DeliveryProbabilities(on_time=1.0, eventually=1.0)
        return RecoveryClassification(certain=certain), losses
    if not lossy:
        eventually = 1.0 if baseline < _INF else 0.0
        certain = DeliveryProbabilities(on_time=0.0, eventually=eventually)
        return RecoveryClassification(certain=certain), losses

    count = len(lossy)
    slow_latency = [recovery_latency_of(edges[slot]) for slot, _loss in lossy]
    # The normal latencies were already read into ``latency`` above; the
    # callback must not be invoked a second time per edge (a non-pure
    # callable would silently diverge between the two reads).
    base_latency = [latency[slot] for slot, _loss in lossy]
    # Edge states: 0 = fast, 1 = recovered (slow), 2 = dead.
    total_states = 3**count
    classes = bytearray(total_states)
    for code in range(total_states):
        value = code
        for position, (slot, _loss) in enumerate(lossy):
            state = value % 3
            value //= 3
            if state == 0:
                latency[slot] = base_latency[position]
                present[slot] = True
            elif state == 1:
                latency[slot] = slow_latency[position]
                present[slot] = True
            else:
                present[slot] = False
        arrival = _earliest_arrival_indexed(
            source, destination, adjacency, latency, present
        )
        if arrival <= deadline_ms:
            classes[code] = _MASK_ON_TIME
        elif arrival < _INF:
            classes[code] = _MASK_LATE
    classification = RecoveryClassification(
        certain=None,
        lossy_slots=tuple(slot for slot, _loss in lossy),
        classes=bytes(classes),
    )
    return classification, losses


def _finalize_recovery_totals(
    totals: tuple[float, float],
) -> DeliveryProbabilities:
    on_time_total, eventually_total = totals
    return DeliveryProbabilities(
        on_time=min(1.0, on_time_total), eventually=min(1.0, eventually_total)
    )


def accumulate_recovery_probabilities(
    classification: RecoveryClassification, losses: list[float]
) -> DeliveryProbabilities:
    """Weight a recovery classification by the current loss values.

    ``losses`` aligns with ``classification.lossy_slots``; the state
    weights are ``1 - p`` (fast), ``p * (1 - p)`` (recovered) and
    ``p * p`` (dead) per edge, multiplied in base-3 digit order -- on
    the pure backend this is the historical ``3^L`` loop bit for bit.
    """
    if classification.certain is not None:
        return classification.certain
    return _finalize_recovery_totals(
        kernel.recovery_totals(classification.classes, losses)
    )


def accumulate_recovery_probabilities_batch(
    classification: RecoveryClassification,
    losses_rows: Sequence[Sequence[float]],
) -> list[DeliveryProbabilities]:
    """Batched :func:`accumulate_recovery_probabilities` (one vector call)."""
    if classification.certain is not None:
        return [classification.certain] * len(losses_rows)
    return [
        _finalize_recovery_totals(totals)
        for totals in kernel.recovery_totals_batch(
            classification.classes, losses_rows
        )
    ]


def delivery_probabilities_with_recovery(
    graph: DisseminationGraph,
    deadline_ms: float,
    latency_of: Callable[[Edge], float],
    loss_of: Callable[[Edge], float],
    recovery_latency_of: Callable[[Edge], float],
    max_lossy_edges: int = 11,
) -> DeliveryProbabilities:
    """Delivery probabilities with one hop-by-hop retransmission per link.

    With link-level recovery each lossy edge has three outcomes instead
    of two: the copy arrives at the edge's normal latency with
    probability ``1 - p``; the first copy is lost but the retransmission
    arrives at ``recovery_latency_of(edge)`` with probability
    ``p * (1 - p)``; both are lost with probability ``p^2``.  The exact
    computation therefore enumerates ternary edge states (``3^L``), which
    is why the lossy-edge cap is lower than the plain engine's.

    ``recovery_latency_of`` should return the *total* latency of a
    recovered copy across the edge -- typically ack-timeout plus the
    retransmission's flight time, on the order of three link latencies.

    Implemented as :func:`classify_recovery_states` followed by
    :func:`accumulate_recovery_probabilities`, mirroring the plain
    engine's split so the replay engine can cache the classification.
    """
    classification, losses = classify_recovery_states(
        graph,
        deadline_ms,
        latency_of,
        loss_of,
        recovery_latency_of,
        max_lossy_edges,
    )
    return accumulate_recovery_probabilities(classification, losses)


def delivery_probabilities(
    graph: DisseminationGraph,
    deadline_ms: float,
    latency_of: Callable[[Edge], float],
    loss_of: Callable[[Edge], float],
    max_lossy_edges: int = MAX_EXACT_LOSSY_EDGES,
) -> DeliveryProbabilities:
    """Exact delivery probabilities for one packet on ``graph``.

    ``latency_of`` / ``loss_of`` give each edge's current effective
    latency and loss rate.  Raises :class:`ReliabilityLimitError` when the
    graph contains more than ``max_lossy_edges`` edges with fractional
    loss.

    Implemented as :func:`classify_delivery_masks` (the Dijkstra
    enumeration) followed by :func:`accumulate_mask_probabilities` (the
    loss-value weighting); callers that see repeated loss-only condition
    changes can cache the classification and skip the first phase.
    """
    classification, losses = classify_delivery_masks(
        graph, deadline_ms, latency_of, loss_of, max_lossy_edges
    )
    return accumulate_mask_probabilities(classification, losses)


def on_time_probability(
    graph: DisseminationGraph,
    deadline_ms: float,
    latency_of: Callable[[Edge], float],
    loss_of: Callable[[Edge], float],
    max_lossy_edges: int = MAX_EXACT_LOSSY_EDGES,
) -> float:
    """Convenience wrapper returning only the on-time probability."""
    return delivery_probabilities(
        graph, deadline_ms, latency_of, loss_of, max_lossy_edges
    ).on_time
