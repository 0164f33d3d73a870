"""Difference-constraint generation for retiming.

A retiming problem is a set of difference constraints
``r(u) - r(v) <= bound`` over the retiming labels:

* **edge constraints** (Eqn. (1) of the paper): retimed weights stay
  non-negative, i.e. ``r(u) - r(v) <= w(e)`` for every connection;
* **clocking constraints** (Eqn. (2)): every path with delay greater
  than the clock period must hold at least one flip-flop, i.e.
  ``r(u) - r(v) <= W(u, v) - 1`` whenever ``D(u, v) > T_clk``;
* **host constraints**: host vertices are pinned to each other
  (``r = const`` on each host) so that I/O latency is preserved; the
  solution is normalised to ``r(host) = 0`` afterwards.

The paper notes (Section 5) that constraint generation dominates
min-area retiming run time, and that the Maheshwari–Sapatnekar
reduction would cut it further; :func:`prune_redundant_arrays`
implements a reduction in that spirit. A clocking constraint ``(u, v)``
is dropped when a vertex ``x`` on a minimum-weight ``u -> v`` path
(witnessed by ``W(u,x) + W(x,v) == W(u,v)``) carries a kept clocking
constraint ``(u, x)`` or ``(x, v)``: the witness constraint plus the
chain of edge constraints along the minimum-weight path already implies
the dropped one. Because the graph has no zero-weight cycles, the "implied-by"
relation is acyclic, so pruning with witnesses is sound. Only the graph
neighbours of the pair's endpoints need testing as witnesses (the
neighbour-witness lemma, proved in ``docs/algorithms.md`` §3).

:func:`build_constraint_system` reads the clocking pairs and their
bounds from a :class:`repro.compile.CompiledCircuit`, which generates
them once per ``(period, prune)`` and keeps them.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.netlist.graph import CircuitGraph
from repro.retime.wd import WDMatrices

if TYPE_CHECKING:
    from repro.compile.artifact import CompiledCircuit


@dataclasses.dataclass(frozen=True)
class Constraint:
    """One difference constraint ``r(u) - r(v) <= bound``."""

    u: str
    v: str
    bound: int
    kind: str  # "edge", "clock", or "host"


@dataclasses.dataclass
class ConstraintSystem:
    """All difference constraints of one retiming problem, with the
    compiled artifact of the graph they were generated for (whose
    vertex order and connection arrays the min-area solver reads)."""

    constraints: List[Constraint]
    period: Optional[float]
    compiled: "CompiledCircuit" = dataclasses.field(compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.constraints)

    def by_kind(self, kind: str) -> List[Constraint]:
        return [c for c in self.constraints if c.kind == kind]


def edge_constraints(graph: CircuitGraph) -> List[Constraint]:
    """Eqn. (1): one constraint per connection, collapsed to the
    tightest bound for parallel connections."""
    best: Dict[Tuple[str, str], int] = {}
    for (u, v, _key), w in graph.connections():
        pair = (u, v)
        if pair not in best or w < best[pair]:
            best[pair] = w
    return [Constraint(u, v, w, "edge") for (u, v), w in best.items()]


def host_constraints(graph: CircuitGraph) -> List[Constraint]:
    """Pin all host vertices to a common label (normalised to 0 later)."""
    hosts = graph.host_units()
    out: List[Constraint] = []
    for a, b in zip(hosts, hosts[1:]):
        out.append(Constraint(a, b, 0, "host"))
        out.append(Constraint(b, a, 0, "host"))
    return out


#: Witness candidates (pair x neighbour edge) gathered per step of
#: :func:`_prune_keep_mask`: bounds its temporary arrays to a few MiB
#: however the endpoint degrees are distributed.
_PRUNE_CHUNK = 1 << 17


def _prune_keep_mask(
    wd: WDMatrices, period: float, src: np.ndarray, dst: np.ndarray
) -> np.ndarray:
    """Keep-mask over clocking pairs ``(src[k], dst[k])``.

    Implements the :func:`prune_redundant_arrays` predicate, testing only the
    graph neighbours of each pair's endpoints as witnesses (the
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


def prune_redundant_arrays(
    wd: WDMatrices, period: float, src: np.ndarray, dst: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Drop clocking constraints implied by others plus edge chains:
    filter the ``(src, dst)`` pair arrays to the non-redundant subset,
    preserving order.

    For pair ``(u, v)``: any ``x`` distinct from both endpoints with
    ``W(u,x) + W(x,v) == W(u,v)`` lies on a minimum-weight path, so the
    chain of edge constraints along that path realises the exact
    bounds ``W(u,x)`` / ``W(x,v)``. If additionally ``D(u,x) > T`` (or
    ``D(x,v) > T``) the clocking constraint through ``x`` composes with
    the chain to a bound ``<= W(u,v) - 1``, making ``(u, v)`` redundant.
    """
    if src.size == 0:
        return src, dst
    keep = _prune_keep_mask(wd, period, src, dst)
    return src[keep], dst[keep]


def build_constraint_system(
    graph: CircuitGraph,
    period: Optional[float],
    prune: bool = False,
    compiled: Optional["CompiledCircuit"] = None,
    tracer=None,
) -> ConstraintSystem:
    """Assemble edge + host (+ clocking, if a period is given) constraints.

    The clocking pairs and their bounds come from ``compiled`` (a
    :class:`repro.compile.CompiledCircuit` of ``graph``, compiled here
    if omitted), whose per-``(period, prune)`` pair cache generates
    them once and keeps them in the artifact. ``tracer`` records the
    artifact's ``compile/rebuild`` span if a new period needs its
    search inputs.

    Raises:
        InfeasiblePeriodError: A single unit's delay exceeds ``period``.
        ValueError: ``compiled`` is the artifact of another graph.
    """
    # repro.compile imports this module, so the artifact class loads late.
    from repro.compile.artifact import CompiledCircuit

    compiled = CompiledCircuit.for_graph(graph, compiled)
    constraints = edge_constraints(graph) + host_constraints(graph)
    if period is not None:
        rows, cols, bounds = compiled.clock_pairs(
            period, prune=prune, graph=graph, tracer=tracer
        )
        names = compiled.order
        constraints += [
            Constraint(names[i], names[j], b, "clock")
            for i, j, b in zip(rows.tolist(), cols.tolist(), bounds.tolist())
        ]
    return ConstraintSystem(constraints, period, compiled)
