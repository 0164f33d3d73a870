"""The retiming graph on networkx: a reference for ``CircuitGraph``.

:class:`NxCircuitGraph` keeps units and connections in a networkx
``MultiDiGraph``, as :class:`repro.netlist.graph.CircuitGraph` once
did, so the flat storage can be checked against networkx's own
ordering of units, connections, keys and neighbours. The helpers below
read any graph with the ``CircuitGraph`` interface.
"""

from __future__ import annotations

from typing import List, Mapping, Optional

import networkx as nx

from repro.netlist.graph import HOST_KIND, HOST_SNK, HOST_SRC


class NxCircuitGraph:
    """The read side and the derivations of ``CircuitGraph``, on a
    networkx ``MultiDiGraph``. Inputs are trusted (no validation)."""

    def __init__(self, name: str = "circuit"):
        self.name = name
        self.g = nx.MultiDiGraph()

    def add_unit(self, unit, delay=1.0, area=1.0, kind="logic"):
        self.g.add_node(unit, delay=float(delay), area=float(area), kind=kind)
        return unit

    def ensure_hosts(self):
        for host in (HOST_SRC, HOST_SNK):
            if host not in self.g:
                self.g.add_node(host, delay=0.0, area=0.0, kind=HOST_KIND)
        return HOST_SRC, HOST_SNK

    def add_connection(self, u, v, weight=0):
        return (u, v, self.g.add_edge(u, v, weight=int(weight)))

    def units(self):
        return iter(self.g.nodes)

    def host_units(self):
        return [v for v, k in self.g.nodes(data="kind") if k == HOST_KIND]

    def connections(self):
        for u, v, key, w in self.g.edges(keys=True, data="weight"):
            yield (u, v, key), w

    def weight(self, cid):
        return self.g.edges[cid]["weight"]

    def delay(self, unit):
        return self.g.nodes[unit]["delay"]

    def area(self, unit):
        return self.g.nodes[unit]["area"]

    def kind(self, unit):
        return self.g.nodes[unit]["kind"]

    def fanin(self, unit):
        return list(self.g.predecessors(unit))

    def fanout(self, unit):
        return list(self.g.successors(unit))

    def in_connections(self, unit):
        for u, v, key, w in self.g.in_edges(unit, keys=True, data="weight"):
            yield (u, v, key), w

    def out_connections(self, unit):
        for u, v, key, w in self.g.out_edges(unit, keys=True, data="weight"):
            yield (u, v, key), w

    def in_degree(self, unit):
        return self.g.in_degree(unit)

    def out_degree(self, unit):
        return self.g.out_degree(unit)

    def copy(self, name: Optional[str] = None) -> "NxCircuitGraph":
        out = NxCircuitGraph(name or self.name)
        out.g = self.g.copy()
        return out

    def retimed(self, labels: Mapping[str, int], name: Optional[str] = None):
        out = self.copy(name or f"{self.name}_retimed")
        for (u, v, key), w in self.connections():
            out.g.edges[u, v, key]["weight"] = w + labels.get(v, 0) - labels.get(u, 0)
        return out

    def relabeled(self, mapping: Mapping[str, str]) -> "NxCircuitGraph":
        out = NxCircuitGraph(self.name)
        out.g = nx.relabel_nodes(self.g, {v: mapping.get(v, v) for v in self.g}, copy=True)
        return out

    def weakly_connected_components(self) -> List[frozenset]:
        return [frozenset(c) for c in nx.weakly_connected_components(self.g)]

    def has_combinational_loop(self) -> bool:
        zero = nx.DiGraph()
        zero.add_nodes_from(self.g.nodes)
        zero.add_edges_from((u, v) for u, v, w in self.g.edges(data="weight") if w == 0)
        return not nx.is_directed_acyclic_graph(zero)


def simple_min_weight_digraph(graph) -> nx.DiGraph:
    """``graph`` with parallel connections collapsed to the lightest.

    Path-weight computations (W/D matrices, feasibility) only care
    about the lightest parallel connection.
    """
    g = nx.DiGraph()
    for unit in graph.units():
        g.add_node(unit, delay=graph.delay(unit))
    for (u, v, _key), w in graph.connections():
        if not g.has_edge(u, v) or w < g.edges[u, v]["weight"]:
            g.add_edge(u, v, weight=w)
    return g


def cycle_conservation_witnesses(original, retimed, samples: int = 16) -> List[str]:
    """Flip-flop conservation on a sample of cycles.

    Retiming preserves the total weight around every cycle (the label
    terms telescope); a stored graph whose cycle weights drifted was
    not produced by any retiming. Samples up to ``samples`` simple
    cycles of the original graph.
    """
    simple_orig = simple_min_weight_digraph(original)
    simple_ret = simple_min_weight_digraph(retimed)
    witnesses: List[str] = []
    for checked, cycle in enumerate(nx.simple_cycles(simple_orig)):
        if checked >= samples:
            break
        w_orig = _cycle_weight(simple_orig, cycle)
        w_ret = _cycle_weight(simple_ret, cycle)
        if w_ret is None:
            witnesses.append(f"cycle through {cycle[0]!r} missing from stored graph")
        elif w_orig != w_ret:
            witnesses.append(f"cycle through {cycle[0]!r}: weight {w_orig} became {w_ret}")
    return witnesses


def _cycle_weight(simple, cycle) -> Optional[int]:
    total = 0
    for u, v in zip(cycle, cycle[1:] + cycle[:1]):
        if not simple.has_edge(u, v):
            return None
        total += simple.edges[u, v]["weight"]
    return total

