"""Sparse, vectorised FEAS period-feasibility engine.

Minimum-period retiming probes dozens of candidate periods. The
retiming engine's one Bellman–Ford (:func:`repro.retime.fastcheck.relax`)
answers each probe on the *clocking-pair* graph — up to O(V^2) arcs
masked out of the W/D matrices per probe period. This module answers
the same question on the *circuit* graph itself, following Leiserson &
Saxe's FEAS algorithm: per probe, repeat rounds of

1. compute arrival times ``Delta(v)`` — the longest register-free path
   delay into ``v`` — by a topological (Kahn) pass over the edges whose
   *retimed* weight is zero;
2. increment ``r(v)`` for every vertex with ``Delta(v) > T``;

declaring the period feasible as soon as a round makes no change.
Everything runs on flat numpy arrays built **once** per graph (CSR
adjacency, weights, delays); a probe allocates only O(V + E) scratch
vectors and never materialises a clocking pair.

Three departures from the textbook algorithm make it exact for this
repository's *split-host* semantics and fast inside a binary search:

**Tied hosts instead of contraction.** Classic FEAS contracts the
source and sink hosts into one vertex, which creates
paths *through* the environment and therefore clocking constraints the
split-host model does not have (the classic algorithm is conservative
on open circuits). Here the graph stays split — arrival times see
exactly the paper's paths — and the host equality ``r(src) = r(snk)``
is enforced on the labels directly: when any host's arrival time
violates the period, *all* hosts increment together, and the increment
set is closed under zero-retimed-weight out-edges so intermediate
retimings keep non-negative weights (for a violating vertex this
closure is automatic — its zero-weight successors violate too — only
the tie-lifted hosts need it).

**Sound infeasibility certificate.** If the period is feasible, the
pointwise-minimal legal retiming dominating the start labels exceeds
them by at most ``|V| - 1`` anywhere: in the difference-constraint
system *relative to the (legal) start*, every bound is >= -1 (edge
bounds are retimed weights >= 0, clocking bounds are ``W_r - 1 >= -1``,
host ties are 0), so the minimal solution — a longest-path distance in
a graph without negative cycles — is reached over simple paths of at
most ``|V| - 1`` arcs. FEAS never overtakes a dominating solution, so
the moment any vertex has been incremented ``|V|`` times the period is
infeasible, no matter how the rounds interleave.

**Warm starts.** FEAS from labels ``r0`` is *exactly* cold FEAS on the
graph retimed by ``r0`` (arrival times depend only on retimed weights,
and retimings compose additively), so any legal label vector — in
particular the witness of a feasible probe at a larger period — is a
valid starting point with the same guarantees. The binary search in
:func:`repro.retime.minperiod.min_period_retiming` restarts every probe
from the last feasible witness and typically converges in a handful of
rounds; see :meth:`FeasProbe.probe_budget` for how it keeps infeasible
probes cheap as well.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import RetimingError
from repro.netlist.graph import CircuitGraph

_EPS = 1e-9


@dataclasses.dataclass
class FeasProbe:
    """Reusable per-graph state for FEAS feasibility probes.

    ``eu``/``ev``/``ew`` are the parallel-deduplicated edges sorted by
    source (``indptr`` is the CSR row pointer over ``eu``); ``index``
    maps every unit name to its vertex index and ``host_idx`` lists the
    tied host vertices.
    """

    index: Dict[str, int]
    n: int
    eu: np.ndarray
    ev: np.ndarray
    ew: np.ndarray
    indptr: np.ndarray
    delays: np.ndarray
    host_idx: np.ndarray
    max_delay: float
    #: FEAS rounds consumed by the most recent probe — observability
    #: only (the min-period search reports it per probe span).
    last_rounds: int = 0
    #: Scratch boolean buffer reused by :meth:`_arrival` to deduplicate
    #: each level's frontier without a per-level ``np.unique`` sort;
    #: always all-``False`` between calls.
    _mark: Optional[np.ndarray] = dataclasses.field(default=None, repr=False)

    @classmethod
    def build(cls, graph: CircuitGraph) -> "FeasProbe":
        """Extract the flat arrays; raises :class:`RetimingError` on a
        zero-weight cycle (the same graphs :func:`wd_matrices` rejects)."""
        order = list(graph.units())
        n = len(order)
        index = {v: i for i, v in enumerate(order)}

        best: Dict[Tuple[int, int], int] = {}
        for (u, v, _k), w in graph.connections():
            if u == v:
                if w == 0:
                    raise RetimingError(
                        "zero-weight self-loop; period feasibility undefined"
                    )
                # A self-loop's retimed weight equals its weight: never
                # zero, so it cannot appear on a register-free path.
                continue
            pair = (index[u], index[v])
            if pair not in best or w < best[pair]:
                best[pair] = w

        if best:
            flat = np.array(
                [(u, v, w) for (u, v), w in best.items()], dtype=np.int64
            )
            sort = np.lexsort((flat[:, 1], flat[:, 0]))
            eu = np.ascontiguousarray(flat[sort, 0])
            ev = np.ascontiguousarray(flat[sort, 1])
            ew = np.ascontiguousarray(flat[sort, 2])
        else:
            eu = np.empty(0, dtype=np.int64)
            ev = np.empty(0, dtype=np.int64)
            ew = np.empty(0, dtype=np.int64)
        indptr = np.zeros(n + 1, dtype=np.int64)
        if eu.size:
            np.cumsum(np.bincount(eu, minlength=n), out=indptr[1:])

        delays = np.array([graph.delay(v) for v in order], dtype=np.float64)
        host_idx = np.array(
            sorted(index[h] for h in graph.host_units()), dtype=np.int64
        )
        probe = cls(
            index=index,
            n=n,
            eu=eu,
            ev=ev,
            ew=ew,
            indptr=indptr,
            delays=delays,
            host_idx=host_idx,
            max_delay=float(delays.max()) if n else 0.0,
        )
        # Zero-weight cycles survive every retiming (cycle weight is
        # invariant, weights stay non-negative): one static acyclicity
        # check covers all future probes.
        probe._arrival(probe.ew == 0)
        return probe

    # ------------------------------------------------------------------
    def _gather_edges(self, frontier: np.ndarray) -> np.ndarray:
        """Indices of all out-edges of the ``frontier`` vertices."""
        starts = self.indptr[frontier]
        counts = self.indptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        span = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        return np.repeat(starts, counts) + span

    def _arrival(self, active: np.ndarray) -> np.ndarray:
        """Arrival times over the ``active`` (zero-retimed-weight) edges
        by a level-synchronous Kahn pass.

        The active subgraph gets its own CSR built once per call
        (``eu`` is source-sorted, so masking preserves the sort), which
        removes the per-level ``active[eidx]`` filter; the next
        frontier is deduplicated through a reusable boolean scatter
        buffer instead of ``np.unique`` — both yield the same sorted
        vertex sets, so arrival times are bit-identical to the naive
        pass (``max`` is exact).
        """
        n = self.n
        delta = self.delays.copy()
        if self.eu.size == 0 or not active.any():
            return delta
        aeu = self.eu[active]
        aev = self.ev[active]
        aptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(aeu, minlength=n), out=aptr[1:])
        indeg = np.bincount(aev, minlength=n)
        mark = self._mark
        if mark is None or mark.size != n:
            mark = self._mark = np.zeros(n, dtype=bool)
        delays = self.delays
        frontier = np.flatnonzero(indeg == 0)
        while frontier.size:
            starts = aptr[frontier]
            counts = aptr[frontier + 1] - starts
            total = int(counts.sum())
            if total == 0:
                break
            offs = np.cumsum(counts)
            eidx = np.repeat(starts - offs + counts, counts)
            eidx += np.arange(total)
            tgt = aev[eidx]
            np.maximum.at(delta, tgt, delta[aeu[eidx]] + delays[tgt])
            np.subtract.at(indeg, tgt, 1)
            mark[tgt] = True
            cand = np.flatnonzero(mark)
            mark[cand] = False
            frontier = cand[indeg[cand] == 0]
        if indeg.max(initial=0) > 0:
            raise RetimingError(
                "zero-weight cycle; period feasibility undefined"
            )
        return delta

    def _close_over_zero_edges(
        self, grow: np.ndarray, seeds: np.ndarray, active: np.ndarray
    ) -> None:
        """Extend ``grow`` (in place) with everything reachable from
        ``seeds`` along ``active`` edges — incrementing a vertex drops
        its zero-weight out-edges below zero unless the targets move
        with it."""
        frontier = seeds
        while frontier.size:
            eidx = self._gather_edges(frontier)
            eidx = eidx[active[eidx]]
            if eidx.size == 0:
                return
            tgt = np.unique(self.ev[eidx])
            tgt = tgt[~grow[tgt]]
            if tgt.size == 0:
                return
            grow[tgt] = True
            frontier = tgt

    def _start_labels(self, start: Optional[np.ndarray]) -> np.ndarray:
        if start is None:
            return np.zeros(self.n, dtype=np.int64)
        r = np.array(start, dtype=np.int64, copy=True)
        if r.shape != (self.n,):
            raise ValueError(f"start has shape {r.shape}, expected ({self.n},)")
        if self.eu.size and (self.ew + r[self.ev] - r[self.eu] < 0).any():
            raise ValueError(
                "start is not a legal retiming (negative retimed weight)"
            )
        if self.host_idx.size > 1 and np.ptp(r[self.host_idx]) != 0:
            raise ValueError("start does not pin all hosts to one label")
        return r

    def _iterate(
        self, period: float, r: np.ndarray, max_rounds: int
    ) -> Optional[bool]:
        """Run FEAS rounds in place on ``r``.

        Returns ``True`` (feasible — ``r`` is a witness), ``False``
        (infeasible — the increment certificate fired), or ``None``
        when ``max_rounds`` ran out first.
        """
        base = r.copy()
        hosts = self.host_idx
        for round_no in range(1, max_rounds + 1):
            self.last_rounds = round_no
            active = (self.ew + r[self.ev] - r[self.eu]) == 0
            delta = self._arrival(active)
            grow = delta > period + _EPS
            if not grow.any():
                return True
            if hosts.size and grow[hosts].any():
                # Hosts are tied: lift them together, then restore the
                # zero-edge closure their lift may have broken.
                fresh = hosts[~grow[hosts]]
                grow[hosts] = True
                self._close_over_zero_edges(grow, fresh, active)
            r[grow] += 1
            if int((r - base).max()) >= self.n:
                return False
        return None

    # ------------------------------------------------------------------
    def probe_budget(
        self, period: float, start: Optional[np.ndarray], rounds: int
    ) -> Tuple[bool, Optional[np.ndarray]]:
        """Best-effort probe under a round budget.

        ``start`` warm-starts the iteration and must be a *legal*
        retiming (non-negative retimed weights, hosts tied), e.g. the
        witness of a feasible probe at a larger period; ``None`` starts
        from all-zero labels. Returns ``(True, labels)`` when the period
        verified within ``rounds`` FEAS rounds (``labels`` is freshly
        allocated and safe to reuse as the next warm start), else
        ``(False, None)`` — which means *not verified*, not necessarily
        infeasible: the caller owns re-checking any boundary it derives
        from unverified probes (the min-period search certifies it on
        the Bellman–Ford checker). The infeasibility certificate needs
        at most ``|V|`` increments of one vertex, so a budget of
        ``8 * (n + 1)`` rounds decides every instance seen in practice.
        """
        if self.max_delay > period:
            self.last_rounds = 0
            return False, None
        r = self._start_labels(start)
        if self._iterate(period, r, rounds):
            return True, r
        return False, None
