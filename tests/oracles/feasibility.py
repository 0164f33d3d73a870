"""Reference period feasibility through explicit constraint objects.

The shipped min-period search decides feasibility on array engines
(:class:`repro.retime.feas_probe.FeasProbe`, and the relaxation kernel
behind :class:`repro.retime.fastcheck.FeasibilityChecker` for
certification and tie-breaking). This oracle builds the Leiserson–Saxe
difference constraints as named :class:`~tests.oracles.constraints.Constraint`
objects straight from the W/D matrices, unpruned, and solves them with
networkx's Bellman–Ford from a virtual source: the textbook
construction, sharing no arrays with the engines.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import networkx as nx

from repro.netlist.graph import CircuitGraph
from repro.retime.minarea import normalise_labels
from repro.retime.wd import WDMatrices, wd_matrices
from tests.oracles.constraints import Constraint, expected_constraints

_SOURCE = object()  # virtual Bellman–Ford source, never collides with names


def period_constraints(
    graph: CircuitGraph, wd: WDMatrices, period: float
) -> List[Constraint]:
    """Eqns. (1) and (2) plus the host ties for ``period``, unpruned:
    a clocking constraint ``r(u) - r(v) <= W(u, v) - 1`` for every pair
    ``u != v`` with ``D(u, v) > period``."""
    return expected_constraints(graph, period, wd=wd)


def constraint_digraph(constraints: Iterable[Constraint]) -> nx.DiGraph:
    """Shortest-path graph for difference constraints.

    ``r(u) - r(v) <= b`` becomes an arc ``v -> u`` with weight ``b``;
    any shortest-path distance vector then satisfies every constraint.
    Parallel constraints collapse to the tightest bound.
    """
    g = nx.DiGraph()
    for c in constraints:
        g.add_node(c.u)
        g.add_node(c.v)
        if g.has_edge(c.v, c.u):
            if c.bound < g.edges[c.v, c.u]["weight"]:
                g.edges[c.v, c.u]["weight"] = c.bound
        else:
            g.add_edge(c.v, c.u, weight=c.bound)
    return g


def feasible_labels(
    constraints: Iterable[Constraint],
) -> Optional[Dict[str, int]]:
    """Any integral solution of the constraints, or ``None`` if infeasible."""
    g = constraint_digraph(constraints)
    nodes = list(g.nodes)
    g.add_node(_SOURCE)
    g.add_weighted_edges_from((_SOURCE, v, 0) for v in nodes)
    try:
        dist = nx.single_source_bellman_ford_path_length(g, _SOURCE)
    except nx.NetworkXUnbounded:
        return None
    return {v: int(dist[v]) for v in nodes}


def is_feasible_period(
    graph: CircuitGraph,
    period: float,
    wd: Optional[WDMatrices] = None,
) -> Optional[Dict[str, int]]:
    """Labels achieving ``period`` (hosts normalised to 0), or ``None``."""
    if wd is None:
        wd = wd_matrices(graph)
    if wd.max_vertex_delay() > period:
        return None
    labels = feasible_labels(period_constraints(graph, wd, period))
    if labels is None:
        return None
    labels = {v: labels.get(v, 0) for v in graph.units()}
    return normalise_labels(graph, labels)
