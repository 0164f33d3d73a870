"""The retiming constraint table.

A retiming problem is one table of difference constraints
``r(u) - r(v) <= bound`` over the retiming labels: a structured int64
array with fields ``u``, ``v`` and ``bound`` (:data:`ROW`), its vertex
indices positions in the compiled artifact's ``order``. Its rows are:

* **edge rows** (Eqn. (1) of the paper): retimed weights stay
  non-negative, i.e. ``r(u) - r(v) <= w(e)``, one row per connected
  ``(u, v)`` pair at the tightest weight of its parallel connections;
* **host rows**: host vertices are pinned to each other
  (``r = const`` on each host) so that I/O latency is preserved; the
  solution is normalised to ``r(host) = 0`` afterwards;
* **clocking rows** (Eqn. (2)): every path with delay greater than the
  clock period must hold at least one flip-flop, i.e.
  ``r(u) - r(v) <= W(u, v) - 1`` whenever ``D(u, v) > T_clk``.

:func:`build_constraint_system` is the one builder of the table. Its
helpers, :func:`static_rows`, :func:`clock_rows` and
:func:`tightest_rows`, also build the min-area LP's rows
(:mod:`repro.retime.incremental`) and the feasibility checker's arcs
(:mod:`repro.retime.fastcheck`).

The paper notes (Section 5) that constraint generation dominates
min-area retiming run time, and that the Maheshwari–Sapatnekar
reduction would cut it further; :func:`clock_rows` with ``prune``
implements a reduction in that spirit. A clocking row ``(u, v)`` is
dropped when a vertex ``x`` on a minimum-weight ``u -> v`` path
(witnessed by ``W(u,x) + W(x,v) == W(u,v)``) carries a clocking row
``(u, x)`` or ``(x, v)``: the witness row plus the chain of edge rows
along the minimum-weight path already implies the dropped one. Because
the graph has no zero-weight cycles, the "implied-by" relation is
acyclic, so pruning with witnesses is sound. Only the graph neighbours
of the pair's endpoints need testing as witnesses (the
neighbour-witness lemma, proved in ``docs/algorithms.md`` §3).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.netlist.graph import CircuitGraph
from repro.retime.wd import WDMatrices, connection_arrays, pair_minima

if TYPE_CHECKING:
    from repro.compile.artifact import CompiledCircuit

#: One row of the constraint table: ``r(u) - r(v) <= bound``.
ROW = np.dtype([("u", np.int64), ("v", np.int64), ("bound", np.int64)])


def row_table(u: np.ndarray, v: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """The :data:`ROW` table of three equal-length integer arrays."""
    rows = np.empty(len(u), dtype=ROW)
    rows["u"] = u
    rows["v"] = v
    rows["bound"] = bound
    return rows


@dataclasses.dataclass(eq=False)
class ConstraintSystem:
    """The constraint table of one retiming problem, with the compiled
    artifact of the graph it was generated for (whose vertex order and
    connection arrays the min-area solver reads).

    ``constraints`` holds the edge and host rows first (``n_static`` of
    them, :func:`static_rows`) and the clocking rows after.
    """

    constraints: np.ndarray
    period: float
    n_static: int
    compiled: "CompiledCircuit" = dataclasses.field(repr=False)

    def __len__(self) -> int:
        return len(self.constraints)


def tightest_rows(u: np.ndarray, v: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """One :data:`ROW` per ``(u, v)`` pair at its smallest bound, the
    pairs in order of first occurrence: the collapse a dict keyed by
    pair gives (:func:`~repro.retime.wd.pair_minima`, reordered)."""
    first, best = pair_minima(u, v, bound)
    order = np.argsort(first)
    first = first[order]
    return row_table(u[first], v[first], best[order])


def static_rows(graph: CircuitGraph) -> np.ndarray:
    """The edge rows, then the host rows, of ``graph`` as a :data:`ROW`
    table indexed like ``graph.units()`` (the vertex order of its W/D
    matrices and of its compiled artifact).

    Edge rows are the graph's connections collapsed per pair by
    :func:`tightest_rows`; host rows tie consecutive hosts both ways at
    bound 0.
    """
    index = {v: i for i, v in enumerate(graph.units())}
    edges = tightest_rows(*connection_arrays(graph, index))
    hosts = np.array([index[h] for h in graph.host_units()], dtype=np.int64)
    a, b = hosts[:-1], hosts[1:]
    host = row_table(
        np.stack([a, b], axis=1).ravel(),
        np.stack([b, a], axis=1).ravel(),
        np.zeros(2 * a.size, dtype=np.int64),
    )
    return np.concatenate([edges, host])


def clock_rows(wd: WDMatrices, period: float, prune: bool) -> np.ndarray:
    """The clocking rows for ``period`` as a :data:`ROW` table: every
    pair ``i != j`` with ``D(i, j) > period`` in row-major order, with
    bound ``W(i, j) - 1``; with ``prune``, minus the pairs a witness
    implies (:func:`_prune_keep_mask`), order kept."""
    rows, cols = wd.pairs_exceeding_arrays(period)
    if prune and rows.size:
        keep = _prune_keep_mask(wd, period, rows, cols)
        rows = rows[keep]
        cols = cols[keep]
    return row_table(rows, cols, wd.w[rows, cols].astype(np.int64) - 1)


#: Witness candidates (pair x neighbour edge) gathered per step of
#: :func:`_prune_keep_mask`: bounds its temporary arrays to a few MiB
#: however the endpoint degrees are distributed.
_PRUNE_CHUNK = 1 << 17


def _prune_keep_mask(
    wd: WDMatrices, period: float, src: np.ndarray, dst: np.ndarray
) -> np.ndarray:
    """Keep-mask over clocking pairs ``(src[k], dst[k])``.

    Implements the witness rule of the module docstring, testing only
    the graph neighbours of each pair's endpoints as witnesses (the
    neighbour-witness lemma): ``(i, j)`` is redundant iff

    * some edge ``p -> j`` with ``p != i`` has
      ``W(i,p) + w(p,j) == W(i,j)`` and ``D(i,p) > T``, or
    * some edge ``i -> s`` with ``s != j`` has
      ``w(i,s) + W(s,j) == W(i,j)`` and ``D(s,j) > T``.

    If any vertex ``x`` on a minimum-weight ``i -> j`` path witnesses
    ``D(i,x) > T``, then ``j``'s predecessor ``p`` on that path extends
    the same path prefix, so ``D(i,p) >= D(i,x) > T`` and ``p``
    witnesses too (symmetrically for ``i``'s successor); conversely a
    neighbour passing the test lies on a minimum-weight path. Work per
    pair is the degree of its endpoints instead of ``n``. Edges come
    from ``wd.edge_*`` (minimum weight per pair, no self-loops); pairs
    are expanded about ``_PRUNE_CHUNK`` candidates at a time.
    """
    n = wd.w.shape[0]
    w_flat = wd.w.ravel()
    d_flat = wd.d.ravel()
    ia = np.asarray(src, dtype=np.int64)
    ja = np.asarray(dst, dtype=np.int64)
    # Per side: edges grouped (CSR) by the endpoint they share with the
    # pair, their far endpoints and weights, and whether the far
    # endpoint starts the witness pair.
    sides = []
    work = np.zeros(ia.size, dtype=np.int64)
    for near, far, pair_end, far_first in (
        (wd.edge_dst, wd.edge_src, ja, False),  # p -> j: witness (i, p)
        (wd.edge_src, wd.edge_dst, ia, True),  # i -> s: witness (s, j)
    ):
        order = np.argsort(near, kind="stable")
        degree = np.bincount(near, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degree, out=indptr[1:])
        sides.append((indptr, far[order], wd.edge_w[order], far_first))
        work += degree[pair_end]

    keep = np.ones(ia.size, dtype=bool)
    if ia.size == 0:
        return keep
    cum = np.cumsum(work)
    cuts = np.searchsorted(cum, np.arange(_PRUNE_CHUNK, cum[-1], _PRUNE_CHUNK))
    bounds = np.unique(np.concatenate([[0], cuts, [ia.size]]))
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        i = ia[lo:hi]
        j = ja[lo:hi]
        wij = w_flat[i * n + j]
        for indptr, far, w_edge, far_first in sides:
            near, other = (i, j) if far_first else (j, i)
            starts = indptr[near]
            counts = indptr[near + 1] - starts
            total = int(counts.sum())
            if total == 0:
                continue
            owner = np.repeat(np.arange(i.size, dtype=np.int64), counts)
            shift = np.cumsum(counts) - counts
            pos = np.repeat(starts - shift, counts) + np.arange(total)
            x = far[pos]
            y = other[owner]
            flat = x * n + y if far_first else y * n + x
            hit = (
                (x != y)
                & (w_flat[flat] + w_edge[pos] == wij[owner])
                & (d_flat[flat] > period)
            )
            keep[lo + owner[hit]] = False
    return keep


def build_constraint_system(
    graph: CircuitGraph,
    period: float,
    prune: bool = False,
    compiled: Optional["CompiledCircuit"] = None,
    tracer=None,
) -> ConstraintSystem:
    """The constraint table for ``period``: :func:`static_rows`, then
    the clocking rows.

    The clocking rows come from ``compiled`` (a
    :class:`repro.compile.CompiledCircuit` of ``graph``, compiled here
    if omitted), whose per-``(period, prune)`` cache
    (:meth:`~repro.compile.CompiledCircuit.clock_pairs`) generates them
    once with :func:`clock_rows` and keeps them in the artifact.
    ``tracer`` records the artifact's ``compile/rebuild`` span if a new
    period needs its search inputs.

    Raises:
        InfeasiblePeriodError: A single unit's delay exceeds ``period``.
        ValueError: ``compiled`` is the artifact of another graph.
    """
    # repro.compile imports this module, so the artifact class loads late.
    from repro.compile.artifact import CompiledCircuit

    compiled = CompiledCircuit.for_graph(graph, compiled)
    static = static_rows(graph)
    clock = compiled.clock_pairs(period, prune=prune, graph=graph, tracer=tracer)
    return ConstraintSystem(
        np.concatenate([static, clock]), float(period), len(static), compiled
    )
