"""Vectorised feasibility checking for period probes.

Minimum-period retiming probes many candidate periods; building a
:class:`~repro.retime.constraints.Constraint` object per clocking pair
(up to O(V^2) of them) per probe dominates runtime. This module keeps
everything in numpy arrays:

* the static arrays (edge constraints, host-equality constraints) are
  extracted once per graph;
* per probe, the clocking pairs ``D > T`` are masked directly out of
  the W/D matrices, then reduced with the witness prune
  (:func:`repro.retime.constraints._prune_keep_mask`): a pruned pair
  is implied by a kept pair plus edge-constraint chains, so dropping
  it changes neither the solution set nor the Bellman–Ford distances,
  while cutting the arc count by ~99% on the larger circuits; the
  pruned arrays are cached per period across probes;
* feasibility is decided by a vectorised Bellman–Ford on the
  difference-constraint graph (``r(u) - r(v) <= b`` becomes arc
  ``v -> u`` with weight ``b``; distances from an implicit all-zero
  source satisfy every constraint iff no negative cycle exists).

The result is exact for the split-host semantics — identical to the
constraint-object reference in ``tests/oracles/feasibility.py``, which
the test suite cross-checks — at a fraction of the cost.

This module is *solver machinery*, not a certifier: it shares the CSR
caches and W/D matrices whose correctness is under test. Independent
certification of finished retimings lives in :mod:`repro.verify`,
which re-derives legality and periods from the raw graph without
touching any of these arrays.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import NegativeCycleError, bellman_ford

from repro.netlist.graph import CircuitGraph
from repro.retime.constraints import _prune_keep_mask
from repro.retime.wd import WDMatrices

#: Relaxation rounds granted to the raw (unpruned) arc arrays before
#: :meth:`FeasibilityChecker.refine` switches to the pruned set — well
#: above what a good warm start needs, well below the ``n``-round tail
#: an infeasible probe would drag the full arrays through.
_REFINE_WARM_ROUNDS = 24


@dataclasses.dataclass
class FeasibilityChecker:
    """Reusable per-graph state for fast period-feasibility probes.

    Everything that does not depend on the probed period is computed
    once in :meth:`build`: the static constraint arcs, the virtual
    source arcs of the Bellman–Ford instance, and the maximum single
    vertex delay (the immediate-reject bound).
    """

    wd: WDMatrices
    static_u: np.ndarray  # constraint r(u) - r(v) <= b ...
    static_v: np.ndarray
    static_b: np.ndarray
    n: int
    max_delay: float
    src_rows: np.ndarray  # virtual-source arcs, shared by every probe
    src_cols: np.ndarray
    src_data: np.ndarray
    #: Per-period (u, v, b) probe arrays. Binary searches probe only a
    #: few dozen distinct periods, so the cache stays small; the arrays
    #: themselves are post-prune, i.e. a few thousand arcs.
    arc_cache: Dict[float, Tuple[np.ndarray, np.ndarray, np.ndarray]] = (
        dataclasses.field(default_factory=dict)
    )

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
        n = len(index)
        return cls(
            wd=wd,
            static_u=u_arr,
            static_v=v_arr,
            static_b=b_arr,
            n=n,
            max_delay=wd.max_vertex_delay(),
            src_rows=np.zeros(n, dtype=np.int64),
            src_cols=np.arange(1, n + 1, dtype=np.int64),
            src_data=np.zeros(n, dtype=np.float64),
        )

    # ------------------------------------------------------------------
    def _probe_arrays(
        self, period: float, prune: bool = True
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Constraint arrays for one period.

        With ``prune=True`` (the cold-solve path), clocking pairs
        implied by a witness pair plus edge chains
        (:func:`repro.retime.constraints._prune_keep_mask`) are dropped
        before the solve: the pruned system has the same solution set,
        so verdicts *and* Bellman–Ford distances are unchanged while
        the arc count falls by ~99% on the larger Table-1 circuits.
        Pruned arrays are small and cached per period; unpruned arrays
        are rebuilt on demand (they can run to megabytes per period).
        """
        cached = self.arc_cache.get(period)
        if cached is not None:
            return cached
        mask = np.isfinite(self.wd.d) & (self.wd.d > period)
        np.fill_diagonal(mask, False)
        rows, cols = np.nonzero(mask)
        if prune and rows.size:
            kept = _prune_keep_mask(self.wd, period, rows, cols)
            rows = rows[kept]
            cols = cols[kept]
        bounds = self.wd.w[rows, cols].astype(np.int64) - 1
        u = np.concatenate([self.static_u, rows])
        v = np.concatenate([self.static_v, cols])
        b = np.concatenate([self.static_b, bounds])
        if prune:
            self.arc_cache[period] = (u, v, b)
        return u, v, b

    def check(self, period: float) -> Optional[np.ndarray]:
        """Integer labels (indexed like ``wd.order``) or ``None``.

        A single unit whose delay already exceeds the period is an
        immediate reject. The Bellman–Ford run itself is delegated to
        scipy's compiled implementation: constraint ``r(u) - r(v) <= b``
        is arc ``v -> u`` with weight ``b``; a virtual source with
        zero-weight arcs to every vertex makes distances a solution,
        and a negative cycle means infeasible.
        """
        if self.max_delay > period:
            return None
        u, v, b = self._probe_arrays(period)
        # Deduplicate arcs keeping the tightest bound (csr construction
        # would otherwise *sum* duplicate entries).
        key = v * self.n + u
        order = np.lexsort((b, key))
        key_sorted = key[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = key_sorted[1:] != key_sorted[:-1]
        sel = order[first]
        rows = v[sel] + 1  # shift by one: row 0 is the virtual source
        cols = u[sel] + 1
        data = b[sel].astype(np.float64)
        matrix = csr_matrix(
            (
                np.concatenate([data, self.src_data]),
                (
                    np.concatenate([rows, self.src_rows]),
                    np.concatenate([cols, self.src_cols]),
                ),
            ),
            shape=(self.n + 1, self.n + 1),
        )
        try:
            dist = bellman_ford(matrix, directed=True, indices=0)
        except NegativeCycleError:
            return None
        return dist[1:].astype(np.int64)

    def refine(
        self, period: float, start: np.ndarray
    ) -> Optional[np.ndarray]:
        """Exact feasibility at ``period`` from a warm start.

        ``start`` holds integer labels indexed like ``wd.order``; any
        values are correct (relaxation converges to the greatest
        solution pointwise ``<= start`` whenever one exists, and a
        shifted copy of *any* solution fits below ``start``), but a
        near-solution — e.g. a witness for a slightly larger period —
        converges in a handful of rounds. Returns corrected labels, or
        ``None`` when ``period`` is infeasible. The verdict is exact
        and identical to :meth:`check`; only the cost differs.

        Each round relaxes ``r(u) <- min(r(u), r(v) + b)`` over the
        arcs leaving changed vertices, which reproduces full
        Bellman–Ford rounds exactly (arcs out of unchanged vertices
        cannot relax further). Hence convergence within ``n + 2``
        rounds, and a round that still changes after that proves a
        negative cycle, i.e. infeasibility. A second sound cutoff fires
        earlier in practice: every bound is ``>= -1``, so feasible
        labels never drop more than ``ptp(start) + n`` below start.

        Cost strategy: a good warm start converges within a few rounds,
        where the witness prune would cost more than the whole
        relaxation — so the first rounds run over the raw arc arrays.
        Infeasible (or badly warmed) probes keep large frontiers alive
        for up to ``n`` rounds, and there the per-round arc traffic
        dominates: past a small round cap the relaxation restarts its
        frontier on the pruned arc set and continues from the labels
        reached so far. Both arc sets describe the same solution set
        and relaxation is monotone, so the verdict and the final labels
        are independent of where the switch happens.
        """
        if self.max_delay > period:
            return None
        r = np.array(start, dtype=np.int64)
        base = r.copy()
        worst = int(np.ptp(r)) + self.n + 1 if self.n else 0
        pruned = period in self.arc_cache
        arcs = self._probe_arrays(period, prune=pruned)
        budget = _REFINE_WARM_ROUNDS if not pruned else self.n + 2
        rounds = 0
        while True:
            status = self._relax(arcs, r, base, worst, budget)
            if status == "converged":
                return r
            if status == "infeasible":
                return None
            rounds += budget
            if pruned and rounds >= self.n + 2:
                # Still changing after n + 2 full rounds on one arc
                # set: negative cycle.
                return None
            arcs = self._probe_arrays(period, prune=True)
            pruned = True
            rounds = 0
            budget = self.n + 2

    def _relax(
        self,
        arcs: Tuple[np.ndarray, np.ndarray, np.ndarray],
        r: np.ndarray,
        base: np.ndarray,
        worst: int,
        budget: int,
    ) -> str:
        """Run up to ``budget`` relaxation rounds in place on ``r``.

        Returns ``"converged"`` (no arc can relax further),
        ``"infeasible"`` (labels fell past the sound ``worst`` cutoff),
        or ``"budget"`` (rounds exhausted, ``r`` holds progress so far).
        """
        u, v, b = arcs
        order = np.argsort(v, kind="stable")
        u = u[order]
        v = v[order]
        b = b[order]
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(v, minlength=self.n), out=indptr[1:])
        frontier = np.ones(self.n, dtype=bool)
        for _ in range(budget):
            src = np.nonzero(frontier)[0]
            starts = indptr[src]
            counts = indptr[src + 1] - starts
            total = int(counts.sum())
            if total == 0:
                return "converged"
            shift = np.cumsum(counts) - counts
            eidx = np.repeat(starts - shift, counts) + np.arange(total)
            au = u[eidx]
            cand = r[v[eidx]] + b[eidx]
            viol = cand < r[au]
            if not viol.any():
                return "converged"
            au = au[viol]
            np.minimum.at(r, au, cand[viol])
            frontier[:] = False
            frontier[au] = True
            if int((base - r).max()) > worst:
                return "infeasible"
        return "budget"

    def labels(self, period: float) -> Optional[Dict[str, int]]:
        """Like :meth:`check` but mapped back to unit names.

        Labels are raw Bellman–Ford potentials; callers normalise hosts
        to 0 with :func:`repro.retime.minarea.normalise_labels`.
        """
        dist = self.check(period)
        if dist is None:
            return None
        return {v: int(dist[i]) for v, i in self.wd.index.items()}
