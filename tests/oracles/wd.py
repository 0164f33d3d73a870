"""Reference W/D matrices: pure-Python tuple Bellman–Ford.

:func:`repro.retime.wd.wd_matrices` scalarises the lexicographic cost
``(w(e), -d(u))`` and runs scipy's Johnson; this module keeps the
tuple costs and relaxes them directly, so a decode or scaling bug in
the fast path cannot hide in both.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np
from scipy.sparse import csr_matrix

from repro.errors import RetimingError
from repro.netlist.graph import CircuitGraph
from repro.retime.wd import WDMatrices


def scalarised_csr_reference(
    graph: CircuitGraph, order: List[str]
) -> Tuple[csr_matrix, float]:
    """Per-edge dict-loop version of :func:`repro.retime.wd._scalarised_csr`."""
    index = {v: i for i, v in enumerate(order)}
    base = graph.total_delay() + 1.0
    best: Dict[Tuple[int, int], float] = {}
    for (u, v, _key), w in graph.connections():
        cost = w * base - graph.delay(u)
        pair = (index[u], index[v])
        if pair not in best or cost < best[pair]:
            best[pair] = cost
    n = len(order)
    if best:
        pairs = np.array(list(best.keys()), dtype=np.int64)
        data = np.array(list(best.values()), dtype=np.float64)
        matrix = csr_matrix((data, (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    else:
        matrix = csr_matrix((n, n), dtype=np.float64)
    return matrix, base


def wd_matrices_reference(graph: CircuitGraph) -> WDMatrices:
    """W/D by Bellman–Ford over tuple costs, one source at a time."""
    order = list(graph.units())
    index = {v: i for i, v in enumerate(order)}
    n = len(order)
    simple = graph.simple_min_weight_digraph()
    inf = math.inf
    w = np.full((n, n), np.inf)
    d = np.full((n, n), np.inf)

    arcs = [
        (index[u], index[v], wt, graph.delay(u))
        for u, v, wt in simple.edges(data="weight")
    ]
    for src_i in range(n):
        dist: List[Tuple[float, float]] = [(inf, inf)] * n
        dist[src_i] = (0.0, 0.0)
        for _iteration in range(n + 1):
            changed = False
            for ui, vi, wt, du in arcs:
                if dist[ui][0] == inf:
                    continue
                cand = (dist[ui][0] + wt, dist[ui][1] - du)
                if cand < dist[vi]:
                    dist[vi] = cand
                    changed = True
            if not changed:
                break
        else:
            raise RetimingError("zero-weight cycle: W/D undefined")
        for vi in range(n):
            if math.isfinite(dist[vi][0]):
                w[src_i, vi] = dist[vi][0]
                d[src_i, vi] = graph.delay(order[vi]) - dist[vi][1]
    edges = np.array(
        sorted((ui, vi, wt) for ui, vi, wt, _du in arcs if ui != vi),
        dtype=np.int64,
    ).reshape(-1, 3)
    return WDMatrices(
        order=order,
        index=index,
        w=w,
        d=d,
        edge_src=edges[:, 0],
        edge_dst=edges[:, 1],
        edge_w=edges[:, 2],
    )
