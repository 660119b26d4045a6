"""One bounded memo for the pure routing primitives.

Dynamic schemes re-derive their graphs at every problem transition, and
most transitions ask a question some flow, scheme or earlier instant
already answered: the same shortest path or disjoint pair over the same
observed adjacency, the same through-latency map under the same latency
inflations.  This module answers such repeats from one process-wide,
thread-safe LRU shared across flows, schemes, time and serve requests.

**Keys are the complete inputs.**  An observed adjacency
(:func:`repro.routing.base.observed_adjacency`) is fixed -- weights *and*
dict order -- by the topology object, the exclusion set, ``penalize_loss``
and, for every observed non-excluded edge whose weight it changes, the
``extra_latency_ms`` (plus the raw ``loss_rate`` when ``penalize_loss``
is set).  A path key holds exactly those, the endpoints and ``k``; a
latency-map key holds the topology, the endpoints and the non-zero
inflations.  A hit is therefore what the call would have computed, bit
for bit.  Keys and paths are packed over the topology's edge and node
indexes (floats keep their exact bits), so an entry costs O(paths), not
O(edges).

**Values are immutable**: paths are stored packed as node codes and
copied out as fresh lists, latency maps are read-only mappings.

**Misses call back into the caller's module-level names**
(``disjoint_paths``, ``shortest_path``, ``observed_adjacency``), so
anything that wraps those names from outside still sees every miss.

The entry cap :data:`MAX_ENTRIES` is a hard limit; :func:`counters`
reports ``hits``, ``misses`` and ``evicted`` so that it never binds
silently (exec telemetry carries them as the ``route_*`` family).
"""

from __future__ import annotations

import itertools
import struct
import threading
import weakref
from array import array
from contextlib import contextmanager
from typing import Callable, Hashable, Iterable, Iterator, Mapping, TypeVar

from repro.core.algorithms import NoPathError
from repro.core.graph import Edge, NodeId, Topology
from repro.netmodel.conditions import LinkState

__all__ = [
    "MAX_ENTRIES",
    "cached",
    "clear",
    "counters",
    "disjoint",
    "edge_mask",
    "full_mask",
    "latency_key",
    "mask_edges",
    "shortest",
]

#: Entry cap of the memo (about 200 bytes an entry).  Holds every
#: distinct routing input of a 0.1-week replay of the 12-site reference
#: overlay (4,592) or of a 0.25-week replay at N=100 (899); longer
#: replays evict their least recently used entries and count them.
MAX_ENTRIES = 8192

_T = TypeVar("_T")

_lock = threading.Lock()
#: key -> value, least recently used first.
_entries: dict[Hashable, object] = {}
_counters = {"hits": 0, "misses": 0, "evicted": 0}
_disabled = False

_serials = itertools.count()
#: topology -> its encoding tables; dies with the topology.
_tables: "weakref.WeakKeyDictionary[Topology, _Tables]" = (
    weakref.WeakKeyDictionary()
)


def counters() -> dict[str, int]:
    """Snapshot of the memo's ``hits``/``misses``/``evicted`` (process-wide)."""
    with _lock:
        return dict(_counters)


def clear() -> None:
    """Drop every entry (counters keep counting)."""
    with _lock:
        _entries.clear()


@contextmanager
def _bypass() -> Iterator[None]:
    """Test seam: compute every primitive afresh inside the block.

    No lookup, no store, no counter moves -- the reference the memoized
    decisions are compared against.
    """
    global _disabled
    previous = _disabled
    _disabled = True
    try:
        yield
    finally:
        _disabled = previous


def cached(key: Hashable, compute: Callable[[], _T]) -> _T:
    """The value stored under ``key``, computing and storing it on a miss.

    ``compute`` must return an immutable value that is a pure function of
    ``key``.  Two threads missing on one key may both compute it; the
    first stored value wins and both callers get it.
    """
    if _disabled:
        return compute()
    with _lock:
        value = _entries.pop(key, _entries)
        if value is not _entries:
            _entries[key] = value  # most recently used goes last
            _counters["hits"] += 1
            return value  # type: ignore[return-value]
        _counters["misses"] += 1
    value = compute()
    with _lock:
        stored = _entries.setdefault(key, value)
        if stored is value:
            while len(_entries) > MAX_ENTRIES:
                del _entries[next(iter(_entries))]
                _counters["evicted"] += 1
    return stored  # type: ignore[return-value]


# -- compact encodings over a topology's indexes ----------------------------------


class _Tables:
    """A topology's edge bits and node codes (built once per topology)."""

    __slots__ = ("serial", "bits", "edge_index", "nodes", "node_code", "mask_bytes")

    def __init__(self, topology: Topology) -> None:
        #: Stands for the topology object in packed keys; never reused, so
        #: a dead topology's entries can only age out, never be hit.
        self.serial = next(_serials)
        self.edge_index = topology.edge_index
        self.bits = {edge: 1 << index for edge, index in self.edge_index.items()}
        self.nodes = topology.nodes
        self.node_code = {node: code for code, node in enumerate(self.nodes)}
        self.mask_bytes = (topology.num_edges + 7) // 8


def _tables_of(topology: Topology) -> _Tables:
    tables = _tables.get(topology)
    if tables is None:
        with _lock:
            tables = _tables.get(topology)
            if tables is None:
                tables = _tables[topology] = _Tables(topology)
    return tables


def edge_mask(topology: Topology, edges: Iterable[Edge]) -> int:
    """Bitmask of ``edges`` over the topology's edge index (others ignored)."""
    bits = _tables_of(topology).bits
    mask = 0
    for edge in edges:
        mask |= bits.get(edge, 0)
    return mask


def full_mask(topology: Topology) -> int:
    """Bitmask of every edge of the topology."""
    return (1 << topology.num_edges) - 1


def mask_edges(topology: Topology, mask: int) -> frozenset[Edge]:
    """The edge set a bitmask encodes."""
    bits = _tables_of(topology).bits
    return frozenset(edge for edge, bit in bits.items() if mask & bit)


#: One weight-changing edge in a key: edge index, inflation, and the raw
#: loss rate when the loss surcharge applies.  Packing keeps the exact
#: IEEE bits of every float in a few bytes per edge.
_INFLATION_ROW = struct.Struct("<Id")
_PENALIZED_ROW = struct.Struct("<Idd")
#: Path-key header: topology serial, kind, source and destination codes,
#: k, penalize_loss.
_PATH_HEAD = struct.Struct("<IBHHH?")
_DISJOINT, _SHORTEST = 0, 1


def _weight_key(
    tables: _Tables,
    observed: Mapping[Edge, LinkState],
    exclude: int,
    penalize_loss: bool,
) -> bytes:
    """What ``observed`` changes in the adjacency's weights, and nothing else.

    One row per observed, non-excluded edge whose weight differs from its
    base latency, in edge-index order: the inflation, and the raw loss
    rate when the loss surcharge applies.  Two views with equal rows
    build identical adjacencies; an edge without a row adds exactly
    ``0.0`` to its weight.
    """
    bits = tables.bits
    index = tables.edge_index
    rows = []
    for edge, state in observed.items():
        bit = bits.get(edge)
        if bit is None or exclude & bit:
            continue
        extra = state.extra_latency_ms
        if penalize_loss:
            if extra > 0.0 or state.loss_rate > 0.0:
                rows.append((index[edge], extra, state.loss_rate))
        elif extra > 0.0:
            rows.append((index[edge], extra))
    rows.sort()
    row = _PENALIZED_ROW if penalize_loss else _INFLATION_ROW
    return b"".join([row.pack(*fields) for fields in rows])


def latency_key(
    tag: str,
    topology: Topology,
    observed: Mapping[Edge, LinkState],
    source: NodeId,
    destination: NodeId,
    *params: Hashable,
) -> tuple:
    """Key of a value derived from the unpenalized, exclusion-free adjacency.

    Such an adjacency reads only the latency inflations from the view, so
    the key is ``tag``, the topology, the endpoints, the packed non-zero
    inflations and whatever ``params`` the derivation adds.
    """
    return (
        tag,
        topology,
        source,
        destination,
        _weight_key(_tables_of(topology), observed, 0, False),
        *params,
    )


def _pack_paths(tables: _Tables, paths) -> bytes:
    codes = array("H")
    for path in paths:
        codes.append(len(path))
        codes.extend(tables.node_code[node] for node in path)
    return codes.tobytes()


def _unpack_paths(tables: _Tables, packed: bytes) -> list[list[NodeId]]:
    codes = array("H", packed)
    nodes = tables.nodes
    paths = []
    at = 0
    while at < len(codes):
        end = at + 1 + codes[at]
        paths.append([nodes[code] for code in codes[at + 1 : end]])
        at = end
    return paths


# -- path builders -----------------------------------------------------------------


def _paths(
    kind: int,
    compute: Callable[[dict], list[list[NodeId]]],
    adjacency_of: Callable,
    topology: Topology,
    observed: Mapping[Edge, LinkState],
    source: NodeId,
    destination: NodeId,
    k: int,
    exclude: int,
    penalize_loss: bool,
) -> list[list[NodeId]]:
    """``compute(adjacency_of(topology, observed, ...))``, memoized.

    The key is one bytes string: the topology's serial, the kind, the
    endpoint codes, ``k`` and ``penalize_loss``, the exclusion mask and
    the weight rows.  The value is the paths packed as node codes.
    """
    tables = _tables_of(topology)
    node_code = tables.node_code
    key = (
        _PATH_HEAD.pack(
            tables.serial,
            kind,
            node_code[source],
            node_code[destination],
            k,
            penalize_loss,
        )
        + exclude.to_bytes(tables.mask_bytes, "little")
        + _weight_key(tables, observed, exclude, penalize_loss)
    )

    def packed() -> bytes:
        adjacency = adjacency_of(
            topology,
            observed,
            exclude=mask_edges(topology, exclude),
            penalize_loss=penalize_loss,
        )
        return _pack_paths(tables, compute(adjacency))

    return _unpack_paths(tables, cached(key, packed))


def disjoint(
    build: Callable,
    adjacency_of: Callable,
    topology: Topology,
    observed: Mapping[Edge, LinkState],
    source: NodeId,
    destination: NodeId,
    k: int,
    *,
    exclude: int = 0,
    penalize_loss: bool = False,
) -> list[list[NodeId]]:
    """``build(adjacency_of(...), source, destination, k=k)``, memoized.

    ``build`` is ``disjoint_paths`` and ``adjacency_of`` is
    ``observed_adjacency`` as the calling module names them; ``exclude``
    is the exclusion set as an :func:`edge_mask`.
    """
    return _paths(
        _DISJOINT,
        lambda adjacency: build(adjacency, source, destination, k=k),
        adjacency_of, topology, observed, source, destination, k,
        exclude, penalize_loss,
    )


def shortest(
    build: Callable,
    adjacency_of: Callable,
    topology: Topology,
    observed: Mapping[Edge, LinkState],
    source: NodeId,
    destination: NodeId,
    *,
    exclude: int = 0,
    penalize_loss: bool = False,
) -> list[NodeId]:
    """The path of ``build(adjacency_of(...), source, destination)``, memoized.

    ``build`` is ``shortest_path``; an unreachable destination is
    remembered too and raises :class:`NoPathError` on every call.
    """

    def compute(adjacency: dict) -> list[list[NodeId]]:
        try:
            path, _latency = build(adjacency, source, destination)
        except NoPathError:
            return []
        return [path]

    paths = _paths(
        _SHORTEST, compute, adjacency_of, topology, observed, source,
        destination, 1, exclude, penalize_loss,
    )
    if not paths:
        raise NoPathError(source, destination)
    return paths[0]
