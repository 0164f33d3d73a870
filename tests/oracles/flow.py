"""Network-simplex min-area retiming: the cold objective-value oracle.

The shipped min-area solver is HiGHS dual simplex
(:class:`repro.retime.incremental.IncrementalMinArea`). This oracle
solves the same LP through its min-cost-flow dual with networkx, a
second, independent solver. :func:`optimal_labels` finds the integer
solution of ``r(u) - r(v) <= bound`` minimising a linear objective
``sum_v c_v * r(v)``. The LP

    min  c^T r   s.t.   r(u) - r(v) <= b_a

is the dual of a minimum-cost flow problem: node ``v`` has demand
``c_v`` (``sum_v c_v`` must be 0, which holds for all retiming
objectives), and each constraint ``a = (u, v, b)`` is an arc
``u -> v`` with cost ``b`` and infinite capacity. The flow is solved
with :func:`networkx.network_simplex`; the optimal labels are
recovered as shortest-path potentials of the *residual* graph, which
satisfies both primal feasibility and complementary slackness (see
DESIGN.md for the derivation). With integer bounds and demands, the
recovered labels are integral.

The optimum is often degenerate, so the labels (and therefore a
circuit's flip-flop placement) depend on the solver; only the
objective value (the flip-flop count for uniform weights) is compared.
:func:`min_area_labels` is :func:`optimal_labels` on a graph's
constraint system and (weighted) min-area objective.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional

import networkx as nx

from repro.errors import (
    InfeasibleConstraintsError,
    RetimingError,
    UnboundedObjectiveError,
)
from repro.retime.constraints import Constraint, ConstraintSystem
from repro.retime.minarea import normalise_labels, retiming_objective

_SOURCE = object()  # virtual Bellman–Ford source, never collides with names


def optimal_labels(
    constraints: Iterable[Constraint],
    objective: Mapping[str, float],
) -> Dict[str, int]:
    """Minimise ``sum_v objective[v] * r(v)`` subject to the constraints.

    ``objective`` must be integral (callers scale real weights; see
    :mod:`repro.retime.minarea`) and must sum to zero. Vertices missing
    from ``objective`` get coefficient 0.

    Raises :class:`RetimingError` if the constraints are infeasible
    (the dual flow is unbounded) or if the objective is unbounded on
    the feasible region.
    """
    flow_g = nx.DiGraph()
    nodes = set()
    for c in constraints:
        nodes.add(c.u)
        nodes.add(c.v)
    nodes.update(objective)
    total = 0
    for v in nodes:
        coeff = int(round(objective.get(v, 0)))
        total += coeff
        flow_g.add_node(v, demand=coeff)
    if total != 0:
        raise RetimingError(f"objective coefficients sum to {total}, not 0")
    for c in constraints:
        if flow_g.has_edge(c.u, c.v):
            if c.bound < flow_g.edges[c.u, c.v]["weight"]:
                flow_g.edges[c.u, c.v]["weight"] = c.bound
        else:
            flow_g.add_edge(c.u, c.v, weight=c.bound)

    try:
        _cost, flow = nx.network_simplex(flow_g)
    except nx.NetworkXUnfeasible as exc:
        raise UnboundedObjectiveError(
            "dual flow infeasible: constraint graph disconnects demands "
            "(objective unbounded on the feasible region)"
        ) from exc
    except nx.NetworkXUnbounded as exc:
        raise InfeasibleConstraintsError(
            "constraints are infeasible (negative-cost constraint cycle)"
        ) from exc

    # Residual graph: forward arcs always (infinite capacity), backward
    # arcs where flow is positive. Shortest paths from a virtual source
    # give potentials; r = -dist is optimal (see module docstring).
    residual = nx.DiGraph()
    residual.add_nodes_from(flow_g.nodes)
    for u, v, b in flow_g.edges(data="weight"):
        _add_min_edge(residual, u, v, b)
        if flow.get(u, {}).get(v, 0) > 0:
            _add_min_edge(residual, v, u, -b)
    residual.add_node(_SOURCE)
    for v in flow_g.nodes:
        residual.add_edge(_SOURCE, v, weight=0)
    try:
        dist = nx.single_source_bellman_ford_path_length(residual, _SOURCE)
    except nx.NetworkXUnbounded as exc:  # pragma: no cover - optimality bug
        raise RetimingError("negative cycle in optimal residual graph") from exc
    return {v: -int(dist[v]) for v in flow_g.nodes}


def min_area_labels(
    graph,
    system: ConstraintSystem,
    weights: Optional[Mapping[str, float]] = None,
) -> Dict[str, int]:
    """Normalised (weighted) min-area labels of ``graph`` by network simplex."""
    labels = optimal_labels(system.constraints, retiming_objective(graph, weights))
    labels = {v: labels.get(v, 0) for v in graph.units()}
    return normalise_labels(graph, labels)


def _add_min_edge(g: nx.DiGraph, u, v, weight) -> None:
    if g.has_edge(u, v):
        if weight < g.edges[u, v]["weight"]:
            g.edges[u, v]["weight"] = weight
    else:
        g.add_edge(u, v, weight=weight)
