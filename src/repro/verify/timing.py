"""Independent arrival-time computation for period certification.

The solvers derive the clock period from W/D matrices (scipy-backed,
warm-started); this module recomputes it from scratch with a plain
Kahn traversal of the *register-free* subgraph — ``Δ(v) = d(v) +
max Δ(u)`` over zero-weight in-edges, exactly the Leiserson–Saxe
``Δ`` recurrence — so a period certificate never trusts the machinery
it is checking.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Tuple

from repro.errors import NetlistError


def combinational_arrivals(graph) -> Dict[str, float]:
    """Longest register-free path delay *ending at* each unit.

    Returns arrivals for every unit reachable in a topological order
    of the zero-weight subgraph. Units on a zero-weight (combinational)
    cycle are absent from the result — compare ``len`` against the
    unit count to detect that case.
    """
    indeg: Dict[str, int] = {u: 0 for u in graph.units()}
    preds: Dict[str, List[str]] = {u: [] for u in indeg}
    succs: Dict[str, List[str]] = {u: [] for u in indeg}
    for (u, v, _key), w in graph.connections():
        if w == 0:
            indeg[v] += 1
            preds[v].append(u)
            succs[u].append(v)

    queue = deque(u for u, d in indeg.items() if d == 0)
    arrival: Dict[str, float] = {}
    while queue:
        u = queue.popleft()
        best = 0.0
        for p in preds[u]:
            if arrival[p] > best:
                best = arrival[p]
        arrival[u] = graph.delay(u) + best
        for v in succs[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    return arrival


def unit_arrivals(graph) -> Dict[str, float]:
    """:func:`combinational_arrivals` for every unit, in unit order.

    Raises:
        NetlistError: The zero-weight subgraph has a cycle (a
            combinational loop), so some units have no arrival.
    """
    arrival = combinational_arrivals(graph)
    if len(arrival) != graph.num_units:
        stuck = sorted(set(graph.units()) - set(arrival))
        raise NetlistError(
            f"combinational (zero-weight) cycle through {stuck[:5]}"
        )
    return {u: arrival[u] for u in graph.units()}


def critical_period(graph) -> float:
    """Clock period of ``graph``: its longest register-free path delay.

    Raises:
        NetlistError: The zero-weight subgraph has a cycle (a
            combinational loop), so no period is defined.
    """
    return max(unit_arrivals(graph).values(), default=0.0)


def late_units(
    graph, period: float, tol: float = 1e-6
) -> Tuple[Dict[str, float], List[str]]:
    """Arrivals plus the units whose arrival exceeds ``period``.

    The late list is sorted worst-first; a unit stuck on a
    combinational cycle never gets an arrival and is reported by the
    caller via the length mismatch.
    """
    arrival = combinational_arrivals(graph)
    late = [u for u, a in arrival.items() if a > period + tol]
    late.sort(key=lambda u: -arrival[u])
    return arrival, late
