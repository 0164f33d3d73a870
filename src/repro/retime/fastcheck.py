"""The one Bellman–Ford of the retiming engine, and period probes on it.

Every "is this difference-constraint system feasible?" question in
:mod:`repro.retime` is answered by :func:`relax`: the period probes of
:class:`FeasibilityChecker` (cold from all-zero labels, or warm from a
witness), and the construction-time feasibility check of
:class:`repro.retime.incremental.IncrementalMinArea`. A constraint
``r(u) - r(v) <= b`` is the shortest-path arc ``v -> u`` of weight
``b``; the kernel relaxes those arcs until the labels satisfy every
constraint (the greatest solution ``<=`` the start labels) or a
negative cycle proves the system infeasible.

Minimum-period retiming probes many candidate periods; building a
:class:`~repro.retime.constraints.Constraint` object per clocking pair
(up to O(V^2) of them) per probe dominates runtime. The checker keeps
everything in numpy arrays:

* the static arrays (edge constraints, host-equality constraints) are
  extracted once per graph;
* per probe, the clocking pairs ``D > T`` are masked directly out of
  the W/D matrices, then reduced with the witness prune
  (:func:`repro.retime.constraints._prune_keep_mask`): a pruned pair
  is implied by a kept pair plus edge-constraint chains, so dropping
  it changes neither the solution set nor the relaxed labels, while
  cutting the arc count by ~99% on the larger circuits; the pruned
  arcs are grouped for the kernel and cached per period across probes.

The result is exact for the split-host semantics — identical to the
constraint-object reference in ``tests/oracles/feasibility.py``, which
the test suite cross-checks — at a fraction of the cost.

This module is *solver machinery*, not a certifier: it shares the
arc caches and W/D matrices whose correctness is under test.
Independent certification of finished retimings lives in
:mod:`repro.verify`, which re-derives legality and periods from the
raw graph without touching any of these arrays.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.netlist.graph import CircuitGraph
from repro.retime.constraints import _prune_keep_mask
from repro.retime.wd import WDMatrices


class Arcs(NamedTuple):
    """Difference constraints ``r(u) - r(v) <= b`` grouped by ``v``.

    The constraints of vertex ``i`` (the arcs leaving ``i`` in the
    shortest-path graph) are ``indptr[i]:indptr[i + 1]``.
    """

    u: np.ndarray
    v: np.ndarray
    b: np.ndarray
    indptr: np.ndarray


def group_arcs(n: int, u: np.ndarray, v: np.ndarray, b: np.ndarray) -> Arcs:
    """Sort the constraints of an ``n``-vertex system by ``v``."""
    order = np.argsort(v, kind="stable")
    v = v[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(v, minlength=n), out=indptr[1:])
    return Arcs(u[order], v, b[order], indptr)


def relax(arcs: Arcs, start: np.ndarray) -> Optional[np.ndarray]:
    """The greatest solution pointwise ``<= start``, or ``None``.

    ``start`` holds integer labels; any values are correct (a shifted
    copy of *any* solution fits below ``start``, so a solution exists
    iff the system is feasible), but a near-solution — e.g. a witness
    for a slightly larger period — converges in a handful of rounds.
    From all-zero labels the result is the shortest-path distance
    vector from a virtual zero-weight source.

    Each round relaxes ``r(u) <- min(r(u), r(v) + b)`` over the arcs
    leaving changed vertices, which reproduces full Bellman–Ford
    rounds exactly (arcs out of unchanged vertices cannot relax
    further). Hence convergence within ``n + 2`` rounds, and a round
    that still changes after that proves a negative cycle, i.e.
    infeasibility. A second sound cutoff fires earlier in practice: a
    shortest path has fewer than ``n`` arcs, each no shorter than the
    smallest bound, so feasible labels never drop more than
    ``ptp(start) + n * max(1, -min(b))`` below start.
    """
    u, v, b, indptr = arcs
    n = len(indptr) - 1
    r = np.array(start, dtype=np.int64)
    base = r.copy()
    drop = max(1, -int(b.min())) if b.size else 1
    worst = int(np.ptp(r)) + n * drop + 1 if n else 0
    frontier = np.ones(n, dtype=bool)
    for _ in range(n + 2):
        src = np.nonzero(frontier)[0]
        starts = indptr[src]
        counts = indptr[src + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return r
        shift = np.cumsum(counts) - counts
        eidx = np.repeat(starts - shift, counts) + np.arange(total)
        au = u[eidx]
        cand = r[v[eidx]] + b[eidx]
        viol = cand < r[au]
        if not viol.any():
            return r
        au = au[viol]
        np.minimum.at(r, au, cand[viol])
        frontier[:] = False
        frontier[au] = True
        if int((base - r).max()) > worst:
            return None
    # Still changing after n + 2 full rounds: negative cycle.
    return None


@dataclasses.dataclass
class FeasibilityChecker:
    """Reusable per-graph state for fast period-feasibility probes.

    Everything that does not depend on the probed period is computed
    once in :meth:`build`: the static constraint arcs and the maximum
    single vertex delay (the immediate-reject bound).
    """

    wd: WDMatrices
    static_u: np.ndarray  # constraint r(u) - r(v) <= b ...
    static_v: np.ndarray
    static_b: np.ndarray
    n: int
    max_delay: float
    #: Per-period grouped probe arcs. Binary searches probe only a few
    #: dozen distinct periods, so the cache stays small; the arcs
    #: themselves are post-prune, i.e. a few thousand.
    arc_cache: Dict[float, Arcs] = dataclasses.field(default_factory=dict)

    @classmethod
    def build(cls, graph: CircuitGraph, wd: WDMatrices) -> "FeasibilityChecker":
        index = wd.index
        best: Dict[Tuple[int, int], int] = {}
        for (u, v, _k), w in graph.connections():
            pair = (index[u], index[v])
            if pair not in best or w < best[pair]:
                best[pair] = w
        hosts = [index[h] for h in graph.host_units()]
        extra: List[Tuple[int, int, int]] = []
        for a, b in zip(hosts, hosts[1:]):
            extra.append((a, b, 0))
            extra.append((b, a, 0))
        u_arr = np.array(
            [p[0] for p in best] + [e[0] for e in extra], dtype=np.int64
        )
        v_arr = np.array(
            [p[1] for p in best] + [e[1] for e in extra], dtype=np.int64
        )
        b_arr = np.array(
            list(best.values()) + [e[2] for e in extra], dtype=np.int64
        )
        return cls(
            wd=wd,
            static_u=u_arr,
            static_v=v_arr,
            static_b=b_arr,
            n=len(index),
            max_delay=wd.max_vertex_delay(),
        )

    # ------------------------------------------------------------------
    def _probe_arcs(self, period: float) -> Arcs:
        """The grouped constraint arcs for one period, cached per period.

        Clocking pairs implied by a witness pair plus edge chains
        (:func:`repro.retime.constraints._prune_keep_mask`) are dropped
        before the solve: the pruned system has the same solution set,
        so verdicts *and* relaxed labels are unchanged while the arc
        count falls by ~99% on the larger Table-1 circuits.
        """
        cached = self.arc_cache.get(period)
        if cached is not None:
            return cached
        rows, cols = self.wd.pairs_exceeding_arrays(period)
        if rows.size:
            kept = _prune_keep_mask(self.wd, period, rows, cols)
            rows = rows[kept]
            cols = cols[kept]
        bounds = self.wd.w[rows, cols].astype(np.int64) - 1
        arcs = group_arcs(
            self.n,
            np.concatenate([self.static_u, rows]),
            np.concatenate([self.static_v, cols]),
            np.concatenate([self.static_b, bounds]),
        )
        self.arc_cache[period] = arcs
        return arcs

    def check(self, period: float) -> Optional[np.ndarray]:
        """Integer labels (indexed like ``wd.order``) or ``None``.

        A single unit whose delay already exceeds the period is an
        immediate reject; otherwise the labels are :func:`relax` from
        all-zero labels — the Bellman–Ford distances from a virtual
        zero-weight source.
        """
        return self.refine(period, np.zeros(self.n, dtype=np.int64))

    def refine(
        self, period: float, start: np.ndarray
    ) -> Optional[np.ndarray]:
        """Exact feasibility at ``period`` from a warm start.

        ``start`` holds integer labels indexed like ``wd.order``; the
        result is :func:`relax` over the pruned arc set
        (:meth:`_probe_arcs`) — the greatest solution ``<= start``, or
        ``None`` when ``period`` is infeasible. The verdict does not
        depend on ``start``; only the cost does.
        """
        if self.max_delay > period:
            return None
        return relax(self._probe_arcs(period), start)

    def labels(self, period: float) -> Optional[Dict[str, int]]:
        """Like :meth:`check` but mapped back to unit names.

        Labels are raw Bellman–Ford potentials; callers normalise hosts
        to 0 with :func:`repro.retime.minarea.normalise_labels`.
        """
        dist = self.check(period)
        if dist is None:
            return None
        return {v: int(dist[i]) for v, i in self.wd.index.items()}
