"""The retiming graph: the central data structure of the library.

A sequential circuit is modelled, after Leiserson & Saxe, as a directed
graph ``G(V, E)`` in which each vertex is a *functional unit* with a
fixed combinational delay and each edge carries a non-negative integer
weight — the number of flip-flops on that connection. This module adds
the extensions the paper needs on top of the classic model:

* every vertex carries an *area* (functional units occupy floorplan
  capacity) and a *kind* (``logic``, ``interconnect`` or ``host``);
* interconnect units (Section 3.2 of the paper) are ordinary vertices
  with ``kind == "interconnect"`` and zero area — they model buffered
  wire segments and may receive relocated flip-flops;
* a *split host* models the environment: primary inputs are driven by
  the source host ``HOST_SRC`` and primary outputs feed the sink host
  ``HOST_SNK``. Retimings must keep ``r == 0`` on both so that I/O
  timing is preserved. Splitting the host (rather than using the single
  host vertex of Leiserson & Saxe) keeps the graph free of zero-weight
  cycles even when the circuit has combinational input-to-output paths,
  which is what makes the W/D matrices well defined on the ISCAS89
  netlists the paper evaluates.

Parallel connections between the same pair of units are allowed (a
netlist can wire two distinct signals between the same units), so
connections are identified by ``(u, v, key)`` triples, ``key`` counting
the earlier ``u -> v`` connections.

Storage is flat: a name -> index dict with delay, area and kind lists
per unit, and source, target and weight lists per connection in the
order they were added. :meth:`CircuitGraph.connections` goes by source
in unit order, then by target in order of the first ``u -> v``
connection, then by key; :meth:`CircuitGraph.fanin` goes by each
predecessor's first connection. The solvers read one cached read-only
:class:`GraphArrays` view instead (:meth:`CircuitGraph.arrays`). A copy
or retiming is laid out as if its connections had been added in
:meth:`CircuitGraph.connections` order.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, NamedTuple, Optional, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from repro.errors import NetlistError

HOST_SRC = "__src__"
HOST_SNK = "__snk__"

LOGIC = "logic"
INTERCONNECT = "interconnect"
HOST_KIND = "host"

_VALID_KINDS = frozenset({LOGIC, INTERCONNECT, HOST_KIND})

ConnectionId = Tuple[str, str, int]

#: Derived state, rebuilt on demand: adjacency, array view, components.
_CACHES = ("_adj", "_view", "_wcc")


class GraphArrays(NamedTuple):
    """A read-only array view of a graph: ``order`` is the unit order
    of :meth:`CircuitGraph.units` and ``delays`` their delays; ``u``,
    ``v`` (positions in ``order``) and ``w`` hold every connection,
    parallel ones and self-loops included, in
    :meth:`CircuitGraph.connections` order."""

    order: Tuple[str, ...]
    delays: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class CircuitGraph:
    """A weighted retiming graph with unit delays, areas and kinds.

    The graph may be built incrementally with :meth:`add_unit` and
    :meth:`add_connection`, or copied/derived from existing graphs.
    """

    def __init__(self, name: str = "circuit"):
        self.name = name
        self._index: Dict[str, int] = {}
        self._names: List[str] = []
        self._delay: List[float] = []
        self._area: List[float] = []
        self._kind: List[str] = []
        # Per connection, by id (the order of adding).
        self._src: List[int] = []
        self._dst: List[int] = []
        self._w: List[int] = []
        # Per unit: target (out) or source (in) -> connection ids by key.
        self._adj: Optional[Tuple[List[dict], List[dict]]] = None
        self._view: Optional[GraphArrays] = None
        self._wcc: Optional[List[frozenset]] = None

    def __getstate__(self) -> dict:
        return {**self.__dict__, **dict.fromkeys(_CACHES)}

    def __setstate__(self, state: dict) -> None:
        if "_g" in state:
            raise NetlistError(
                "graph pickled by an older CircuitGraph layout; rebuild it from its source"
            )
        self.__dict__.update(state)

    def _adjacency(self) -> Tuple[List[dict], List[dict]]:
        if self._adj is None:
            out: List[dict] = [{} for _ in self._names]
            inn: List[dict] = [{} for _ in self._names]
            for cid, (iu, iv) in enumerate(zip(self._src, self._dst)):
                out[iu].setdefault(iv, []).append(cid)
                inn[iv].setdefault(iu, []).append(cid)
            self._adj = (out, inn)
        return self._adj

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_unit(
        self,
        unit: str,
        delay: float = 1.0,
        area: float = 1.0,
        kind: str = LOGIC,
    ) -> str:
        """Add a functional, interconnect or host unit.

        Raises :class:`NetlistError` on duplicate names, negative delay
        or area, or an unknown kind.
        """
        if unit in self._index:
            raise NetlistError(f"duplicate unit {unit!r}")
        if delay < 0:
            raise NetlistError(f"unit {unit!r} has negative delay {delay}")
        if area < 0:
            raise NetlistError(f"unit {unit!r} has negative area {area}")
        if kind not in _VALID_KINDS:
            raise NetlistError(f"unit {unit!r} has unknown kind {kind!r}")
        self._index[unit] = len(self._names)
        self._names.append(unit)
        self._delay.append(float(delay))
        self._area.append(float(area))
        self._kind.append(kind)
        if self._adj is not None:
            for side in self._adj:
                side.append({})
        self._view = self._wcc = None
        return unit

    def ensure_hosts(self) -> Tuple[str, str]:
        """Add the source/sink host vertices if missing; return their names."""
        for host in (HOST_SRC, HOST_SNK):
            if host not in self._index:
                self.add_unit(host, delay=0.0, area=0.0, kind=HOST_KIND)
        return HOST_SRC, HOST_SNK

    def add_connection(self, u: str, v: str, weight: int = 0) -> ConnectionId:
        """Connect ``u -> v`` with ``weight`` flip-flops; return its id."""
        for endpoint in (u, v):
            if endpoint not in self._index:
                raise NetlistError(f"unknown unit {endpoint!r}")
        if weight < 0:
            raise NetlistError(f"connection {u!r}->{v!r} has negative weight {weight}")
        out, inn = self._adjacency()
        iu, iv, cid = self._index[u], self._index[v], len(self._w)
        keys = out[iu].setdefault(iv, [])
        keys.append(cid)
        inn[iv].setdefault(iu, []).append(cid)
        self._src.append(iu)
        self._dst.append(iv)
        self._w.append(int(weight))
        self._view = self._wcc = None
        return (u, v, len(keys) - 1)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def host_units(self) -> List[str]:
        """All host-kind vertices present in the graph."""
        return [v for v, k in zip(self._names, self._kind) if k == HOST_KIND]

    def units(self) -> Iterator[str]:
        """All unit names, including the host if present."""
        return iter(self._names)

    def logic_units(self) -> Iterator[str]:
        return (v for v, k in zip(self._names, self._kind) if k == LOGIC)

    def interconnect_units(self) -> Iterator[str]:
        return (v for v, k in zip(self._names, self._kind) if k == INTERCONNECT)

    def connections(self) -> Iterator[Tuple[ConnectionId, int]]:
        """Yield ``((u, v, key), weight)`` for every connection."""
        names, w = self._names, self._w
        for u, targets in zip(names, self._adjacency()[0]):
            for iv, cids in targets.items():
                v = names[iv]
                for key, cid in enumerate(cids):
                    yield (u, v, key), w[cid]

    def connection_ids(self) -> Iterator[ConnectionId]:
        for cid, _w in self.connections():
            yield cid

    def _cid(self, cid: ConnectionId) -> int:
        u, v, key = cid
        cids = self._adjacency()[0][self._index[u]][self._index[v]]
        if not 0 <= key < len(cids):
            raise KeyError(cid)
        return cids[key]

    def weight(self, cid: ConnectionId) -> int:
        return self._w[self._cid(cid)]

    def set_weight(self, cid: ConnectionId, weight: int) -> None:
        if weight < 0:
            raise NetlistError(f"connection {cid} assigned negative weight {weight}")
        self._w[self._cid(cid)] = int(weight)
        self._view = None

    def delay(self, unit: str) -> float:
        return self._delay[self._index[unit]]

    def area(self, unit: str) -> float:
        return self._area[self._index[unit]]

    def kind(self, unit: str) -> str:
        return self._kind[self._index[unit]]

    def fanin(self, unit: str) -> List[str]:
        return [self._names[i] for i in self._adjacency()[1][self._index[unit]]]

    def fanout(self, unit: str) -> List[str]:
        return [self._names[i] for i in self._adjacency()[0][self._index[unit]]]

    def in_connections(self, unit: str) -> Iterator[Tuple[ConnectionId, int]]:
        for iu, cids in self._adjacency()[1][self._index[unit]].items():
            for key, cid in enumerate(cids):
                yield (self._names[iu], unit, key), self._w[cid]

    def out_connections(self, unit: str) -> Iterator[Tuple[ConnectionId, int]]:
        for iv, cids in self._adjacency()[0][self._index[unit]].items():
            for key, cid in enumerate(cids):
                yield (unit, self._names[iv], key), self._w[cid]

    def in_degree(self, unit: str) -> int:
        return sum(map(len, self._adjacency()[1][self._index[unit]].values()))

    def out_degree(self, unit: str) -> int:
        return sum(map(len, self._adjacency()[0][self._index[unit]].values()))

    @property
    def num_units(self) -> int:
        return len(self._names)

    @property
    def num_connections(self) -> int:
        return len(self._w)

    def total_flip_flops(self) -> int:
        """Total flip-flop count ``N(G) = sum of edge weights``."""
        return sum(self._w)

    def total_delay(self) -> float:
        return sum(self._delay)

    def has_unit(self, unit: str) -> bool:
        return unit in self._index

    def __contains__(self, unit: str) -> bool:
        return unit in self._index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CircuitGraph({self.name!r}, units={self.num_units}, "
            f"connections={self.num_connections}, ffs={self.total_flip_flops()})"
        )

    def arrays(self) -> GraphArrays:
        """The graph as read-only arrays (:class:`GraphArrays`), cached
        until the next edit."""
        if self._view is None:
            out = self._adjacency()[0]
            order = [cid for targets in out for cids in targets.values() for cid in cids]
            self._view = GraphArrays(
                tuple(self._names),
                _frozen(np.array(self._delay, dtype=np.float64)),
                *(_frozen(np.array(x, dtype=np.int64)[order]) for x in (self._src, self._dst, self._w)),
            )
        return self._view

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def _derived(self, name: str, weights: np.ndarray) -> "CircuitGraph":
        """This graph's units, and its connections in connection order
        with ``weights``."""
        view = self.arrays()
        out = CircuitGraph(name)
        out._index = dict(self._index)
        out._names, out._delay = list(self._names), list(self._delay)
        out._area, out._kind = list(self._area), list(self._kind)
        out._src, out._dst, out._w = view.u.tolist(), view.v.tolist(), weights.tolist()
        out._view = view._replace(w=_frozen(weights))
        out._wcc = self._wcc  # the same topology
        return out

    def copy(self, name: Optional[str] = None) -> "CircuitGraph":
        return self._derived(name or self.name, self.arrays().w.copy())

    def retimed(self, labels: Mapping[str, int], name: Optional[str] = None) -> "CircuitGraph":
        """Return a new graph with weights ``w_r(e) = w(e) + r(v) - r(u)``.

        Raises :class:`NetlistError` if any retimed weight would be
        negative or if any host label is nonzero.
        """
        for host in self.host_units():
            if labels.get(host, 0) != 0:
                raise NetlistError(f"retiming must keep r({host}) == 0")
        view = self.arrays()
        r = np.fromiter(
            (labels.get(v, 0) for v in view.order), dtype=np.int64, count=len(view.order)
        )
        wr = view.w + r[view.v] - r[view.u]
        negative = np.flatnonzero(wr < 0)
        if negative.size:
            k = negative[0]
            u, v = view.order[view.u[k]], view.order[view.v[k]]
            raise NetlistError(
                f"retiming makes connection {u!r}->{v!r} weight negative ({int(wr[k])})"
            )
        return self._derived(name or f"{self.name}_retimed", wr)

    def weakly_connected_components(self) -> List[frozenset]:
        """Weakly-connected components of the unit graph, ordered by
        their first unit, cached.

        Parallel connections and weights don't affect connectivity, so
        the cache survives weight edits (``set_weight``, ``retimed``)
        and is only dropped when units or connections are added.
        """
        if self._wcc is None:
            view = self.arrays()
            n = len(view.order)
            adjacency = csr_matrix((np.ones(view.u.size), (view.u, view.v)), shape=(n, n))
            _k, label = connected_components(adjacency, connection="weak")
            members: Dict[int, List[str]] = {}
            for name, c in zip(view.order, label.tolist()):
                members.setdefault(c, []).append(name)
            self._wcc = [frozenset(m) for m in members.values()]
        return self._wcc

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def combinational_loop(self) -> Optional[str]:
        """Where the zero-weight connections close a cycle (a
        combinational loop), or ``None`` when they close none: a
        zero-weight self-loop first, else a strongly connected
        component of two units or more."""
        view = self.arrays()
        zero = view.w == 0
        u, v = view.u[zero], view.v[zero]
        loop = u == v
        if loop.any():
            return f"zero-weight self-loop at {view.order[u[loop][0]]!r}"
        n = len(view.order)
        adjacency = csr_matrix((np.ones(u.size), (u, v)), shape=(n, n))
        k, label = connected_components(adjacency, connection="strong")
        if k == n:
            return None
        big = np.flatnonzero(np.bincount(label) > 1)[0]
        units = ", ".join(repr(view.order[i]) for i in np.flatnonzero(label == big)[:4])
        return f"zero-weight cycle through {units}"

    def validate(self) -> None:
        """Check structural invariants; raise :class:`NetlistError` if broken.

        Weights, delays and areas are checked as they are set; this
        adds:

        * every zero-weight cycle is illegal (a combinational loop);
        * host vertices have zero delay.
        """
        for host in self.host_units():
            if self.delay(host) != 0.0:
                raise NetlistError(f"host vertex {host} must have zero delay")
        loop = self.combinational_loop()
        if loop is not None:
            raise NetlistError(f"combinational loop: {loop}")


def relabeled(graph: CircuitGraph, mapping: Mapping[str, str]) -> CircuitGraph:
    """Return a copy of ``graph`` with units renamed through ``mapping``."""
    out = CircuitGraph(graph.name)
    for v in graph.units():
        out.add_unit(mapping.get(v, v), graph.delay(v), graph.area(v), graph.kind(v))
    for (u, v, _key), w in graph.connections():
        out.add_connection(mapping.get(u, u), mapping.get(v, v), w)
    return out
