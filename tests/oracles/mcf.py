"""Successive-shortest-path min-cost flow, and the retiming LP solved
through it: an objective-value oracle.

The retiming LP ``min c^T r`` s.t. ``r(u) - r(v) <= b`` is the dual of
a min-cost flow: node ``v`` has demand ``c_v`` and each constraint is
an uncapacitated arc ``u -> v`` of cost ``b``; optimal labels are the
negated node potentials. :class:`MinCostFlow` solves that flow over
hashable node ids on the flat :class:`_Network`;
:func:`solve_retiming_dual` solves a constraint list with it, a third
solver beside the shipped HiGHS min-area solve and network simplex
(:mod:`tests.oracles.flow`).

:class:`_Network` implements the *successive shortest augmenting path*
algorithm with Johnson potentials:

1. initial potentials by Bellman–Ford over all arcs (costs may be
   negative; a negative cycle means the problem is unbounded, i.e. the
   primal retiming constraints are infeasible);
2. repeatedly route flow from excess nodes to deficit nodes along
   shortest paths under *reduced* costs (all non-negative, so Dijkstra
   applies), augmenting by the bottleneck amount;
3. potentials are updated with the Dijkstra distances, keeping reduced
   costs non-negative.

Arc capacities are conceptually infinite (retiming's dual has no
capacities), so forward arcs never saturate; only backward (residual)
arcs can. With integer demands and costs the result is integral.

Two refinements keep it usable on Table-1-sized instances:

* **multi-source Dijkstra with early exit** — every search starts from
  *all* remaining excess nodes at distance zero and stops at the first
  deficit popped, which by Dijkstra's invariant is the globally
  nearest one;
* **search continuation** — augmenting along shortest-path tree arcs
  only ever *adds* residual arcs (the reverse of a zero-reduced-cost
  tree arc cannot shorten any label) unless a backward arc on the path
  saturates or the path's root runs out of excess; in the common case
  (the target's deficit is filled) the same search keeps popping for
  the next deficit, and the Johnson potential update is deferred to
  the end of the search, clamped at the last target's distance.

:meth:`_Network.run_ssp` leaves both the flow and the final
potentials; for the retiming dual the potentials directly provide
optimal labels (complementary slackness), so no residual-graph
post-pass is needed.
"""

from __future__ import annotations

import heapq
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import InfeasibleConstraintsError, UnboundedObjectiveError

_INF = float("inf")
_EPS = 1e-12
_TOL = 1e-9

# _augment outcomes
_OK = 0
_SATURATED = 1
_DEAD_ROOT = 2
_ROOT_EXHAUSTED = 3


class _Network:
    """Flat residual network behind :class:`MinCostFlow`.

    Forward arc ``k`` (``tails[k] -> heads[k]``, cost ``costs[k]``) has
    unlimited capacity; its backward twin has capacity equal to the
    current forward flow. ``flow[k]`` is the only mutable state.
    Adjacency entries are ``(k, forward, other_endpoint, cost)``
    tuples, kept as plain Python objects because the Dijkstra inner
    loop is scalar — numpy is used where work is bulk (Bellman–Ford,
    potential updates).
    """

    def __init__(
        self,
        n: int,
        tails: Sequence[int],
        heads: Sequence[int],
        costs: Sequence[float],
    ):
        self.n = n
        self.m = len(tails)
        self._bf_tails = np.asarray(tails, dtype=np.int64)
        self._bf_heads = np.asarray(heads, dtype=np.int64)
        self._bf_costs = np.asarray(costs, dtype=np.float64)
        self.flow: List[float] = [0.0] * self.m
        adj: List[List[Tuple[int, bool, int, float]]] = [[] for _ in range(n)]
        for k in range(self.m):
            u, v, c = tails[k], heads[k], float(costs[k])
            adj[u].append((k, True, v, c))
            adj[v].append((k, False, u, -c))
        self.adj = adj

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero all flows for a fresh solve over the same arcs."""
        self.flow = [0.0] * self.m

    # ------------------------------------------------------------------
    def bellman_ford(self) -> List[float]:
        """Potentials from a virtual zero-cost source (vectorised).

        One Jacobi relaxation round per iteration over all forward arcs
        at once; convergence within ``n + 1`` rounds, otherwise a
        negative-cost cycle exists.
        """
        pot = np.zeros(self.n, dtype=np.float64)
        if self.m == 0:
            return pot.tolist()
        ft, fh, fc = self._bf_tails, self._bf_heads, self._bf_costs
        for _round in range(self.n + 1):
            new = pot.copy()
            np.minimum.at(new, fh, pot[ft] + fc)
            if not (new < pot - _EPS).any():
                return pot.tolist()
            pot = new
        raise InfeasibleConstraintsError(
            "negative-cost cycle (primal constraints infeasible)"
        )

    # ------------------------------------------------------------------
    def run_ssp(
        self, excess: List[float], potential: List[float]
    ) -> Tuple[float, int]:
        """Successive shortest paths; mutates flows, excess, potential.

        ``excess[i] > 0`` means node ``i`` has supply to send;
        ``potential`` must make every residual arc's reduced cost
        non-negative (Bellman–Ford potentials for fresh arcs, or the
        previous optimum for a warm-started re-solve — forward arcs
        never saturate, so an optimal potential vector stays valid
        after flows are reset).

        Returns ``(total_cost, n_augmentations)``. Raises
        :class:`UnboundedObjectiveError` when excess cannot reach any
        deficit node.
        """
        n = self.n
        flow = self.flow
        adj = self.adj
        n_aug = 0
        sources = [i for i in range(n) if excess[i] > _TOL]
        while sources:
            # One multi-source search, serving as many (root, target)
            # pairs as it can: the first deficit popped is the
            # globally nearest (Dijkstra invariant over a virtual
            # source), and both a filled target and an exhausted root
            # leave the label set usable — all the invariants below
            # rest on relaxation inequalities, which don't reference
            # the source set. Only a saturating backward arc (a
            # residual arc vanishing) forces a restart.
            dist = [_INF] * n
            parent: List[Optional[Tuple[int, bool, int]]] = [None] * n
            done = [False] * n
            heap = [(0.0, s) for s in sources]
            for s in sources:
                dist[s] = 0.0
            d_last = 0.0
            live = len(sources)
            augmented = False
            while heap:
                d, u = heapq.heappop(heap)
                if done[u]:
                    continue
                done[u] = True
                d_last = d
                if excess[u] < -_TOL:
                    outcome = self._augment(u, parent, excess)
                    if outcome == _SATURATED:
                        n_aug += 1
                        augmented = True
                        break
                    if outcome == _ROOT_EXHAUSTED:
                        n_aug += 1
                        augmented = True
                        live -= 1
                        if live == 0:
                            # no root can feed another path; popping
                            # the rest of the heap would be wasted.
                            break
                    elif outcome == _OK:
                        n_aug += 1
                        augmented = True
                    # A _DEAD_ROOT target (its tree path ends at a
                    # root an earlier augmentation exhausted) simply
                    # waits for the next search.
                    # in both cases u is finalised like any other
                    # node: fall through and relax its arcs, so later
                    # deficits may route through it.
                du_base = d + potential[u]
                for k, forward, v, c in adj[u]:
                    if done[v] or (not forward and flow[k] <= _EPS):
                        continue
                    nd = du_base + c - potential[v]
                    if nd < dist[v] - _EPS:
                        dist[v] = nd
                        parent[v] = (k, forward, u)
                        heapq.heappush(heap, (nd, v))
            # Deferred Johnson update, clamped at the pop watermark:
            # every finitely-labelled node at or below d_last is
            # finalised with a relaxation-consistent distance and
            # every tentative label is >= d_last, so reduced costs
            # stay non-negative — and each augmenting path used above
            # has reduced cost zero under the updated potentials,
            # which is the SSP optimality certificate.
            for i in range(n):
                di = dist[i]
                potential[i] += di if di < d_last else d_last
            sources = [i for i in sources if excess[i] > _TOL]
            if sources and not augmented:
                # Heap emptied with supply left and nothing moved: the
                # residual graph is exactly what this search explored,
                # so the remaining deficits are genuinely cut off.
                # (After any augmentation the new backward arcs may
                # open fresh reachability, so we just search again.)
                raise UnboundedObjectiveError(
                    "excess supply cannot reach any deficit node"
                )
        cost_total = 0.0
        if self.m:
            cost_total = float(np.dot(np.asarray(self.flow), self._bf_costs))
        return cost_total, n_aug

    # ------------------------------------------------------------------
    def _augment(
        self,
        target: int,
        parent: List[Optional[Tuple[int, bool, int]]],
        excess: List[float],
    ) -> int:
        """Push the bottleneck along ``target``'s path.

        Returns ``_OK`` when flow moved and every residual arc
        survived, ``_ROOT_EXHAUSTED`` when flow moved and the path's
        root gave its last excess (the labels stay usable, but the
        caller should track how many live roots remain),
        ``_SATURATED`` when a backward arc on the path dropped to
        zero residual (the search's labels may now rest on a vanished
        arc and must be rebuilt), or ``_DEAD_ROOT`` when the tree
        path ends at a root a previous augmentation already exhausted
        (nothing is pushed; the caller defers the target).
        """
        flow = self.flow
        # walk to the root, computing the bottleneck
        bottleneck = -excess[target]
        node = target
        while True:
            entry = parent[node]
            if entry is None:
                break
            k, forward, prev = entry
            if not forward and flow[k] < bottleneck:
                bottleneck = flow[k]
            node = prev
        root = node
        if excess[root] <= _TOL:
            return _DEAD_ROOT
        if excess[root] < bottleneck:
            bottleneck = excess[root]
        # apply
        saturated = False
        node = target
        while True:
            entry = parent[node]
            if entry is None:
                break
            k, forward, prev = entry
            if forward:
                flow[k] += bottleneck
            else:
                flow[k] -= bottleneck
                if flow[k] <= _EPS:
                    saturated = True
            node = prev
        excess[root] -= bottleneck
        excess[target] += bottleneck
        if saturated:
            return _SATURATED
        return _ROOT_EXHAUSTED if excess[root] <= _TOL else _OK


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
