"""W and D matrices for retiming (Leiserson & Saxe).

For vertices ``u, v``:

* ``W(u, v)`` — the minimum number of flip-flops on any path from ``u``
  to ``v``;
* ``D(u, v)`` — the maximum total vertex delay (both endpoints
  included) over paths from ``u`` to ``v`` whose weight is ``W(u, v)``.

Both reduce to a lexicographic shortest-path problem with edge cost
``(w(e), -d(u))``. :func:`wd_matrices` scalarises the tuple as
``w(e) * B - d(u)`` with ``B`` greater than the total circuit delay and
solves it with :func:`scipy.sparse.csgraph.johnson` (compiled);
``W = ceil(dist / B)`` and ``D = d(v) + (W * B - dist)`` decode the two
components. The test suite cross-checks it against a pure-Python tuple
Bellman–Ford kept in ``tests/oracles/wd.py``.

Every cycle must carry at least one flip-flop (checked by
:meth:`CircuitGraph.validate`); otherwise the scalarised graph has a
negative cycle and the matrices are undefined.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import NegativeCycleError, johnson

from repro.errors import RetimingError
from repro.netlist.graph import CircuitGraph

#: Decode tolerance for the ceil() of scalarised distances.
_DECODE_EPS = 1e-9


@dataclasses.dataclass
class WDMatrices:
    """Dense W/D matrices plus the vertex index that defines their axes.

    ``w[i, j]`` is ``W(order[i], order[j])`` and ``inf`` where no path
    exists; likewise for ``d``. Diagonals are ``W(v, v) = 0`` and
    ``D(v, v) = delay(v)`` (the empty path).
    """

    order: List[str]
    index: Dict[str, int]
    w: np.ndarray
    d: np.ndarray
    #: The graph's connections as index arrays, one per ``(u, v)`` pair
    #: at its minimum weight, self-loops dropped. Constraint pruning
    #: tests witnesses along these edges only.
    edge_src: np.ndarray
    edge_dst: np.ndarray
    edge_w: np.ndarray

    def exceeding(self, period: float) -> np.ndarray:
        """The boolean ``n x n`` mask of pairs ``i != j`` with finite
        ``D > period``."""
        mask = np.isfinite(self.d) & (self.d > period)
        np.fill_diagonal(mask, False)
        return mask

    def max_vertex_delay(self) -> float:
        return float(np.diag(self.d).max()) if len(self.order) else 0.0


def clock_period(graph: CircuitGraph, wd: Optional[WDMatrices] = None) -> float:
    """Current clock period: the longest register-free path delay.

    Computed as the maximum ``D(u, v)`` over pairs with
    ``W(u, v) == 0`` (plus single-vertex delays on the diagonal).
    """
    if wd is None:
        wd = wd_matrices(graph)
    zero_weight = np.isfinite(wd.w) & (wd.w == 0)
    if not zero_weight.any():
        return wd.max_vertex_delay()
    return float(wd.d[zero_weight].max())


def pair_minima(
    u: np.ndarray, v: np.ndarray, w: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """For each distinct ``(u[k], v[k])`` pair, in ``(u, v)`` order: the
    position of its first occurrence and its smallest ``w``.

    A stable sort by flattened pair key (which keeps each pair's first
    occurrence first), then ``minimum.reduceat`` over each run, instead
    of a per-row Python dict. ``u`` and ``v`` are non-negative int64.
    """
    if not u.size:
        return np.empty(0, dtype=np.int64), w[:0]
    key = u * (int(v.max()) + 1) + v
    rank = np.argsort(key, kind="stable")
    key_sorted = key[rank]
    head = np.empty(key.size, dtype=bool)
    head[0] = True
    np.not_equal(key_sorted[1:], key_sorted[:-1], out=head[1:])
    starts = np.flatnonzero(head)
    return rank[starts], np.minimum.reduceat(w[rank], starts)


def _min_weight_edges(graph: CircuitGraph) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(src, dst, w)`` int64 arrays: one entry per connected ``(u, v)``
    pair of unit indices, at the minimum weight over its parallel
    connections (:func:`pair_minima`), sorted by ``(src, dst)``.
    Self-loops are kept."""
    view = graph.arrays()
    first, weights = pair_minima(view.u, view.v, view.w)
    return view.u[first], view.v[first], weights


def _scalarised_csr(
    graph: CircuitGraph, edges: Tuple[np.ndarray, np.ndarray, np.ndarray]
) -> Tuple[csr_matrix, float]:
    """Build the scalarised cost matrix and return it with the base B.

    ``edges`` is :func:`_min_weight_edges` of the graph: parallel
    connections share their source's delay, so the minimum cost per
    ``(u, v)`` pair is the cost of the minimum weight.
    """
    base = graph.total_delay() + 1.0
    n = graph.num_units
    src, dst, weights = edges
    if not src.size:
        return csr_matrix((n, n), dtype=np.float64), base
    data = weights.astype(np.float64) * base - graph.arrays().delays[src]
    return csr_matrix((data, (src, dst)), shape=(n, n)), base


def wd_matrices(graph: CircuitGraph) -> WDMatrices:
    """Compute W/D with the scalarised Johnson algorithm."""
    view = graph.arrays()
    order = list(view.order)
    n = len(order)
    src, dst, weights = _min_weight_edges(graph)
    matrix, base = _scalarised_csr(graph, (src, dst, weights))
    try:
        dist = johnson(matrix, directed=True)
    except NegativeCycleError as exc:
        raise RetimingError(
            "graph has a zero-weight cycle; W/D matrices undefined"
        ) from exc

    reachable = np.isfinite(dist)
    w = np.full((n, n), np.inf)
    d = np.full((n, n), np.inf)
    with np.errstate(invalid="ignore"):
        w_vals = np.ceil(dist / base - _DECODE_EPS)
    delays = view.delays
    w[reachable] = w_vals[reachable]
    with np.errstate(invalid="ignore"):
        slack = w_vals * base - dist
        d_full = slack + delays[np.newaxis, :]
    d[reachable] = d_full[reachable]
    # Johnson reports dist(v, v) = 0: the empty path. Decoded that gives
    # W = 0 and D = d(v), which is exactly the convention we document.
    index = {v: i for i, v in enumerate(order)}
    loop = src == dst
    return WDMatrices(
        order=order,
        index=index,
        w=w,
        d=d,
        edge_src=src[~loop],
        edge_dst=dst[~loop],
        edge_w=weights[~loop],
    )


def candidate_periods(wd: WDMatrices) -> np.ndarray:
    """Sorted distinct finite D values, as a float64 array — the
    binary-search domain for minimum-period retiming (the optimum
    period is always one of them).

    Every distinct float is kept: near-equal values that differ only
    by decode noise are each a candidate, so the search's minimum is
    the minimum over the exact set.
    """
    return np.unique(wd.d[np.isfinite(wd.d)])
