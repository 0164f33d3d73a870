"""Successive-shortest-path min-cost flow over named nodes, and the
retiming LP solved through it: an objective-value oracle.

The retiming LP ``min c^T r`` s.t. ``r(u) - r(v) <= b`` is the dual of
a min-cost flow: node ``v`` has demand ``c_v`` and each constraint is
an uncapacitated arc ``u -> v`` of cost ``b``; optimal labels are the
negated node potentials. :class:`MinCostFlow` wraps the flat
:class:`repro.retime.mcf._Network` (the shipped SSP engine behind
:class:`repro.retime.incremental.IncrementalMinArea`'s fallback) with
hashable node ids; :func:`solve_retiming_dual` solves a constraint
list with it, a third solver beside HiGHS and network simplex
(:mod:`tests.oracles.flow`).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import UnboundedObjectiveError
from repro.retime.mcf import _TOL, _Network

Node = Hashable


class MinCostFlow:
    """A min-cost-flow instance over hashable node ids."""

    def __init__(self):
        self._index: Dict[Node, int] = {}
        self._nodes: List[Node] = []
        self._demand: List[float] = []
        # arcs accumulate as parallel lists; the flat network is
        # assembled once, inside solve().
        self._arc_tail: List[int] = []
        self._arc_head: List[int] = []
        self._arc_cost: List[float] = []
        self._net: Optional[_Network] = None
        self._pair_arcs: Optional[Dict[Tuple[int, int], List[int]]] = None

    # ------------------------------------------------------------------
    def _node(self, name: Node) -> int:
        if name not in self._index:
            self._index[name] = len(self._nodes)
            self._nodes.append(name)
            self._demand.append(0.0)
        return self._index[name]

    def add_node(self, name: Node, demand: float = 0.0) -> None:
        """Declare ``name`` with ``demand`` (> 0 wants inflow)."""
        i = self._node(name)
        self._demand[i] += demand

    def add_arc(self, u: Node, v: Node, cost: float) -> None:
        """Directed arc ``u -> v`` with unlimited capacity and ``cost``."""
        self._arc_tail.append(self._node(u))
        self._arc_head.append(self._node(v))
        self._arc_cost.append(float(cost))
        self._net = None
        self._pair_arcs = None

    # ------------------------------------------------------------------
    def solve(self) -> Tuple[float, Dict[Node, float]]:
        """Run successive shortest paths.

        Returns ``(total_cost, potentials)`` where potentials are the
        shortest-path node potentials at optimality.

        Raises:
            UnboundedObjectiveError: demands cannot be satisfied
                (excess cannot reach deficit).
            InfeasibleConstraintsError: a negative-cost cycle with
                unbounded capacity exists.
        """
        demand = self._demand
        if demand and abs(sum(demand)) > _TOL:
            raise ValueError("demands must sum to zero")
        self._net = _Network(
            len(self._nodes), self._arc_tail, self._arc_head, self._arc_cost
        )
        potential = self._net.bellman_ford()
        excess = [-d for d in demand]
        cost_total, _n_aug = self._net.run_ssp(excess, potential)
        potentials = {
            self._nodes[i]: potential[i] for i in range(len(self._nodes))
        }
        return cost_total, potentials

    def flow_on(self, u: Node, v: Node) -> float:
        """Total flow currently routed on arcs ``u -> v``."""
        ui = self._index.get(u)
        vi = self._index.get(v)
        if ui is None or vi is None or self._net is None:
            return 0.0
        if self._pair_arcs is None:
            # indexed lookup built once: (tail, head) -> forward arc ids
            pairs: Dict[Tuple[int, int], List[int]] = {}
            for k in range(len(self._arc_tail)):
                key = (self._arc_tail[k], self._arc_head[k])
                pairs.setdefault(key, []).append(k)
            self._pair_arcs = pairs
        arcs = self._pair_arcs.get((ui, vi))
        if not arcs:
            return 0.0
        return float(sum(self._net.flow[k] for k in arcs))


def solve_retiming_dual(
    constraints: Sequence, objective: Mapping[Node, float]
) -> Dict[Node, int]:
    """Solve the retiming LP with the in-house solver.

    The duality of the module docstring: node demand ``c_v``, one arc
    per ``(u, v)`` pair with cost = the tightest bound, optimal labels
    = ``-potential``.
    """
    mcf = MinCostFlow()
    for node, coeff in objective.items():
        mcf.add_node(node, demand=float(int(round(coeff))))
    best: Dict[Tuple[Node, Node], float] = {}
    for c in constraints:
        key = (c.u, c.v)
        if key not in best or c.bound < best[key]:
            best[key] = c.bound
    for (u, v), bound in best.items():
        mcf.add_node(u)
        mcf.add_node(v)
        mcf.add_arc(u, v, float(bound))
    try:
        _cost, potentials = mcf.solve()
    except UnboundedObjectiveError:
        raise
    return {node: -int(round(p)) for node, p in potentials.items()}
