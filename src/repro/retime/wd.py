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
from typing import Dict, List, Tuple

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

    def pairs_exceeding_arrays(self, period: float) -> Tuple[np.ndarray, np.ndarray]:
        """Index pairs ``(i, j)``, ``i != j``, with ``D > period``, as a
        ``(rows, cols)`` ndarray pair in row-major order."""
        mask = np.isfinite(self.d) & (self.d > period)
        np.fill_diagonal(mask, False)
        return np.nonzero(mask)

    def pairs_exceeding(self, period: float) -> List[Tuple[int, int]]:
        """List-of-tuples wrapper around :meth:`pairs_exceeding_arrays`.

        Kept for compatibility; O(n^2) materialisation on large
        circuits, so internal callers use the ndarray path.
        """
        rows, cols = self.pairs_exceeding_arrays(period)
        return list(zip(rows.tolist(), cols.tolist()))

    def max_vertex_delay(self) -> float:
        return float(np.diag(self.d).max()) if len(self.order) else 0.0


def _scalarised_csr(graph: CircuitGraph, order: List[str]) -> Tuple[csr_matrix, float]:
    """Build the scalarised cost matrix and return it with the base B.

    Parallel connections collapse to the minimum cost per ``(u, v)``
    pair via a NumPy duplicate-pair reduction (lexsort by flattened
    pair key, then ``minimum.reduceat`` over each run) instead of a
    per-edge Python dict.
    """
    index = {v: i for i, v in enumerate(order)}
    base = graph.total_delay() + 1.0
    n = len(order)
    edges = [(index[u], index[v], w) for (u, v, _key), w in graph.connections()]
    if not edges:
        return csr_matrix((n, n), dtype=np.float64), base
    arr = np.asarray(edges, dtype=np.float64)
    src = arr[:, 0].astype(np.int64)
    dst = arr[:, 1].astype(np.int64)
    delays = np.fromiter((graph.delay(v) for v in order), dtype=np.float64, count=n)
    cost = arr[:, 2] * base - delays[src]
    key = src * np.int64(n) + dst
    rank = np.argsort(key, kind="stable")
    key_sorted = key[rank]
    first = np.empty(key_sorted.size, dtype=bool)
    first[0] = True
    np.not_equal(key_sorted[1:], key_sorted[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    data = np.minimum.reduceat(cost[rank], starts)
    keys = key_sorted[starts]
    return csr_matrix((data, (keys // n, keys % n)), shape=(n, n)), base


def wd_matrices(graph: CircuitGraph) -> WDMatrices:
    """Compute W/D with the scalarised Johnson algorithm."""
    order = list(graph.units())
    n = len(order)
    matrix, base = _scalarised_csr(graph, order)
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
    delays = np.array([graph.delay(v) for v in order])
    w[reachable] = w_vals[reachable]
    with np.errstate(invalid="ignore"):
        slack = w_vals * base - dist
        d_full = slack + delays[np.newaxis, :]
    d[reachable] = d_full[reachable]
    # Johnson reports dist(v, v) = 0: the empty path. Decoded that gives
    # W = 0 and D = d(v), which is exactly the convention we document.
    index = {v: i for i, v in enumerate(order)}
    return WDMatrices(order=order, index=index, w=w, d=d)


#: Default merge tolerance for :func:`candidate_periods`: D values are
#: decoded from scalarised distances, so mathematically equal path
#: delays can differ by float noise well below this.
_CANDIDATE_TOL = 1e-9


def candidate_periods(wd: WDMatrices, tol: float = _CANDIDATE_TOL) -> List[float]:
    """Sorted distinct finite D values — the binary-search domain for
    minimum-period retiming (the optimum period is always one of them).

    Runs of values within ``tol`` of their neighbour are merged to the
    run's *largest* member: feasibility is monotone in the period, so
    keeping the maximum preserves the first-feasible candidate (up to
    ``tol``) while dropping decode-noise near-duplicates. ``tol=0``
    keeps every distinct float.
    """
    mask = np.isfinite(wd.d)
    if not mask.any():
        return []
    vals = np.unique(wd.d[mask])
    if tol > 0 and vals.size > 1:
        keep = np.empty(vals.size, dtype=bool)
        keep[:-1] = np.diff(vals) > tol
        keep[-1] = True
        vals = vals[keep]
    return [float(x) for x in vals]
