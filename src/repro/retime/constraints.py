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

Which neighbours are minimum-weight witnesses, and their ``D``, do not
depend on the period; only the test ``D(witness) > T`` does. So a
:class:`WitnessTable` stores, per pair, the largest witness delay
``M(u, v)``, and ``(u, v)`` is an essential row exactly for ``T`` in
``[M(u, v), D(u, v))``: one table answers the pruned rows of every
period at or above the one it was built at, each a vectorised mask.
The feasibility checker of a period search keeps one
(:mod:`repro.retime.fastcheck`), and the min-period search hands its
table on to the same planning iteration's ``T_clk`` build.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.netlist.graph import CircuitGraph
from repro.retime.wd import WDMatrices, pair_minima

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
    view = graph.arrays()
    edges = tightest_rows(view.u, view.v, view.w)
    hosts = np.array([view.order.index(h) for h in graph.host_units()], dtype=np.int64)
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
    bound ``W(i, j) - 1``; with ``prune``, only the essential ones (a
    :class:`WitnessTable` built at ``period``), order kept."""
    if prune:
        return WitnessTable.build(wd, period).rows(period)
    rows, cols = wd.pairs_exceeding_arrays(period)
    return row_table(rows, cols, wd.w[rows, cols].astype(np.int64) - 1)


@dataclasses.dataclass(frozen=True)
class WitnessTable:
    """The witness prune of every period ``>= floor``, computed once.

    One entry per pair ``i != j`` of ``wd`` with ``D(i, j) > floor``, in
    row-major order: its flat index ``i * n + j``, ``D(i, j)`` and
    ``M(i, j)``, the largest ``D`` of a neighbour witness of the pair
    (:func:`_witness_delays`; ``-inf`` when it has none). Being a
    minimum-weight witness and the witness's ``D`` do not depend on the
    period; only the comparison with it does. So the pair is an
    essential clocking row at period ``T`` exactly when
    ``M(i, j) <= T < D(i, j)``, and :meth:`rows` is one mask. A row's
    ends and bound are read back from ``wd`` for the kept pairs only, so
    the table holds 24 bytes a pair (about 15 MB for the 637k pairs of the
    expanded s5378 at its ``T_min``).
    """

    wd: WDMatrices = dataclasses.field(repr=False)
    floor: float
    flat: np.ndarray
    d: np.ndarray
    m: np.ndarray

    @classmethod
    def build(cls, wd: WDMatrices, floor: float) -> "WitnessTable":
        """The table of the pairs of ``wd`` whose ``D`` exceeds ``floor``."""
        flat = np.flatnonzero(wd.exceeding(floor))
        m = _witness_delays(wd, flat)
        return cls(wd, float(floor), flat, wd.d.ravel()[flat], m)

    @property
    def kept_at_floor(self) -> int:
        """How many of the table's pairs are essential at its floor."""
        return int(np.count_nonzero(self.m <= self.floor))

    def rows(self, period: float) -> np.ndarray:
        """The essential clocking rows at ``period`` as a :data:`ROW`
        table, row-major: the same rows, in the same order, as pruning
        the pairs exceeding ``period`` pair by pair."""
        if period < self.floor:
            raise ValueError(
                f"period {period} is below the witness table's floor {self.floor}"
            )
        flat = self.flat[(self.d > period) & (self.m <= period)]
        u, v = np.divmod(flat, self.wd.w.shape[0])
        return row_table(u, v, self.wd.w.ravel()[flat].astype(np.int64) - 1)


#: Witness candidates (pair x neighbour edge) gathered per step of
#: :func:`_witness_delays`: bounds its temporary arrays to a few MiB
#: however the endpoint degrees are distributed.
_PRUNE_CHUNK = 1 << 17


def _witness_delays(wd: WDMatrices, flat: np.ndarray) -> np.ndarray:
    """``M`` over the pairs ``(i, j)`` with flat index ``flat[k] = i * n
    + j``: the largest ``D`` of a neighbour witness, ``-inf`` for a pair
    without one.

    The neighbour witnesses of ``(i, j)`` (the neighbour-witness lemma
    of ``docs/algorithms.md`` §3) are

    * ``(i, p)`` for each edge ``p -> j`` with ``p != i`` and
      ``W(i,p) + w(p,j) == W(i,j)``, and
    * ``(s, j)`` for each edge ``i -> s`` with ``s != j`` and
      ``w(i,s) + W(s,j) == W(i,j)``.

    The pair is redundant at ``T`` iff one of them has ``D > T``, i.e.
    iff ``M > T``. Testing only neighbours suffices: if any vertex
    ``x`` on a minimum-weight ``i -> j`` path has ``D(i,x) > T``, then
    ``j``'s predecessor ``p`` on that path extends the same path
    prefix, so ``D(i,p) >= D(i,x) > T`` (symmetrically for ``i``'s
    successor). Work per pair is the degree of its endpoints instead of
    ``n``. Edges come from ``wd.edge_*`` (minimum weight per pair, no
    self-loops); pairs are expanded about ``_PRUNE_CHUNK`` candidates
    at a time.
    """
    n = wd.w.shape[0]
    w_flat = wd.w.ravel()
    d_flat = wd.d.ravel()
    # Per side: edges grouped (CSR) by the endpoint they share with the
    # pair, their far endpoints and weights, and whether the far
    # endpoint starts the witness pair.
    sides = []
    work = np.zeros(flat.size, dtype=np.int64)
    for near, far, far_first in (
        (wd.edge_dst, wd.edge_src, False),  # p -> j: witness (i, p)
        (wd.edge_src, wd.edge_dst, True),  # i -> s: witness (s, j)
    ):
        order = np.argsort(near, kind="stable")
        degree = np.bincount(near, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degree, out=indptr[1:])
        sides.append((indptr, far[order], wd.edge_w[order], far_first))
        work += degree[flat // n if far_first else flat % n]

    best = np.full(flat.size, -np.inf)
    if flat.size == 0:
        return best
    cum = np.cumsum(work, out=work)
    cuts = np.searchsorted(cum, np.arange(_PRUNE_CHUNK, cum[-1], _PRUNE_CHUNK))
    bounds = np.unique(np.concatenate([[0], cuts, [flat.size]]))
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        i, j = np.divmod(flat[lo:hi], n)
        wij = w_flat[flat[lo:hi]]
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
            witness = x * n + y if far_first else y * n + x
            hit = (x != y) & (w_flat[witness] + w_edge[pos] == wij[owner])
            np.maximum.at(best, lo + owner[hit], d_flat[witness[hit]])
    return best


def build_constraint_system(
    graph: CircuitGraph,
    period: float,
    prune: bool = False,
    compiled: Optional["CompiledCircuit"] = None,
    tracer=None,
    witness: Optional[WitnessTable] = None,
) -> ConstraintSystem:
    """The constraint table for ``period``: :func:`static_rows`, then
    the clocking rows.

    The clocking rows come from ``compiled`` (a
    :class:`repro.compile.CompiledCircuit` of ``graph``, compiled here
    if omitted), whose per-``(period, prune)`` cache
    (:meth:`~repro.compile.CompiledCircuit.clock_pairs`) generates them
    once and keeps them in the artifact: a mask of ``witness`` (a
    :class:`WitnessTable` of the artifact's W/D, such as the min-period
    search's) when it covers ``period``, else :func:`clock_rows`.
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
    clock = compiled.clock_pairs(
        period, prune=prune, graph=graph, tracer=tracer, witness=witness
    )
    return ConstraintSystem(
        np.concatenate([static, clock]), float(period), len(static), compiled
    )
