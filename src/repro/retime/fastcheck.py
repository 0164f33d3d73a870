"""The one Bellman–Ford of the retiming engine, and period probes on it.

Every "is this difference-constraint system feasible?" question in
:mod:`repro.retime` is answered by :func:`relax`: the period probes of
:class:`FeasibilityChecker` (cold from all-zero labels, or warm from a
witness), and the construction-time feasibility check of
:class:`repro.retime.incremental.IncrementalMinArea`. A constraint
``r(u) - r(v) <= b`` is the shortest-path arc ``v -> u`` of weight
``b``; the kernel relaxes those arcs until the labels satisfy every
constraint (the greatest solution ``<=`` the start labels) or a
negative cycle proves the system infeasible. That cycle is found, not
inferred: every lowered vertex remembers the arc that lowered it, and
a periodic pointer-doubling check finds a cycle among those parent
arcs, which is always a negative one (Cherkassky & Goldberg, 1999). An
infeasible probe therefore stops a few rounds after the cycle forms,
instead of relaxing until its labels have dropped by about ``|V|``
bounds, and hands back the cycle as its certificate (:class:`Relaxed`).

Minimum-period retiming probes many candidate periods, so the checker
keeps everything in numpy arrays and builds its rows with the helpers
of :mod:`repro.retime.constraints`, the same ones the min-area
solver's constraint table comes from:

* the static rows (edge rows, host-equality rows) are
  :func:`~repro.retime.constraints.static_rows`, built once per graph;
* per probe, the clocking rows are
  :func:`~repro.retime.constraints.clock_rows` with the witness prune:
  a pruned pair is implied by a kept pair plus edge-row chains, so
  dropping it changes neither the solution set nor the relaxed labels,
  while cutting the arc count by ~99% on the larger circuits; the
  arcs are grouped for the kernel and cached per probed period in the
  checker (never in the compiled artifact, whose pickled record would
  grow by every probe).

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
from typing import Dict, NamedTuple, Optional

import numpy as np

from repro.netlist.graph import CircuitGraph
from repro.retime.constraints import clock_rows, static_rows
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


class Relaxed(NamedTuple):
    """What :func:`relax` hands back.

    ``labels`` is set when the system is feasible, ``cycle`` when it is
    not. ``cycle`` holds arc indices (into the :class:`Arcs`
    arrays) in cycle order: arc ``k`` leaves the vertex arc ``k - 1``
    enters (``v[cycle[k]] == u[cycle[k - 1]]``, wrapping around), and
    the bounds along it sum below zero, so the system is infeasible.
    ``rounds`` counts the relaxation rounds run.
    """

    labels: Optional[np.ndarray]
    cycle: Optional[np.ndarray]
    rounds: int


#: Rounds between two parent-graph cycle checks in :func:`relax`. The
#: parent graph of every infeasible Table-1 refine closes a cycle by
#: round 7, so checking every 4th round ends them all at round 8.
CYCLE_CHECK_EVERY = 4


def _parent_cycle(arcs: Arcs, parent: np.ndarray) -> Optional[np.ndarray]:
    """A cycle of the parent graph as arc indices in cycle order, or
    ``None`` when the parent graph is a forest.

    ``parent[x]`` is the arc that last lowered vertex ``x`` (``-1``:
    never lowered). Pointer doubling maps every vertex to its
    ``2^k``-th ancestor with ``2^k >= n``, a root sentinel ``n`` for
    vertices whose chain ends at a root: O(n log n). A vertex whose
    ancestor is not the sentinel leads into a cycle, and that ancestor
    lies on it, since a chain of ``n`` steps must repeat a vertex.
    """
    n = parent.size
    up = np.full(n + 1, n, dtype=np.int64)
    lowered = parent >= 0
    up[:n][lowered] = arcs.v[parent[lowered]]
    steps = 1
    while steps < n:
        up = up[up]
        steps *= 2
    on_cycle = np.nonzero(up[:n] != n)[0]
    if on_cycle.size == 0:
        return None
    start = x = int(up[on_cycle[0]])
    cycle = []
    while True:
        arc = int(parent[x])
        cycle.append(arc)
        x = int(arcs.v[arc])
        if x == start:
            break
    return np.array(cycle[::-1], dtype=np.int64)


def relax(arcs: Arcs, start: np.ndarray) -> Relaxed:
    """The greatest solution pointwise ``<= start``, or a negative cycle.

    ``start`` holds integer labels; any values are correct (a shifted
    copy of *any* solution fits below ``start``, so a solution exists
    iff the system is feasible), but a near-solution — e.g. a witness
    for a slightly larger period — converges in a handful of rounds.
    From all-zero labels the result is the shortest-path distance
    vector from a virtual zero-weight source.

    Each round relaxes ``r(u) <- min(r(u), r(v) + b)`` over the arcs
    leaving changed vertices, which reproduces full Bellman–Ford
    rounds exactly (arcs out of unchanged vertices cannot relax
    further), so a feasible system converges within ``n + 2`` rounds.
    Every lowered vertex records an arc that reached its new label (its
    *parent*), and every :data:`CYCLE_CHECK_EVERY` rounds
    :func:`_parent_cycle` looks for a cycle in the parent graph
    (Cherkassky & Goldberg, 1999).

    Soundness: a parent arc ``v -> u`` is set when ``r(u)`` drops to
    ``r(v) + b``, and ``r(v)`` only falls afterwards, so ``r(u) >=
    r(p(u)) + b`` holds for every parent arc. Summed around a parent
    cycle this gives a bound sum ``<= 0``. It is strict across the arc
    out of the cycle vertex lowered last: its successor on the cycle
    took its own parent in that round or earlier, reading the label
    from before the drop. A parent cycle is thus a negative cycle, and
    the verdict is certified by the cycle returned. The check only ever
    fires on infeasible systems, so feasible labels are exactly those
    of plain rounds.

    Completeness: while the parent graph is a forest, every label is
    at least its tree root's unlowered start plus at most ``n - 1``
    bounds, so no label drops more than ``ptp(start) + (n - 1) *
    max(1, -min(b))`` below its start; a drop past that bound runs the
    check at once and is certain to find a cycle. So does a round at
    or past ``n`` that still lowers a label: parent chains lose at most
    one round per step and only round-1 parents point at roots, so that
    label's chain cannot end at a root.
    """
    u, v, b, indptr = arcs
    n = len(indptr) - 1
    r = np.array(start, dtype=np.int64)
    base = r.copy()
    drop = max(1, -int(b.min())) if b.size else 1
    forest = int(np.ptp(r)) + (n - 1) * drop if n else 0
    parent = np.full(n, -1, dtype=np.int64)
    frontier = np.ones(n, dtype=bool)
    rounds = 0
    while rounds < n + 2:
        rounds += 1
        src = np.nonzero(frontier)[0]
        starts = indptr[src]
        counts = indptr[src + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return Relaxed(r, None, rounds)
        shift = np.cumsum(counts) - counts
        eidx = np.repeat(starts - shift, counts) + np.arange(total)
        au = u[eidx]
        cand = r[v[eidx]] + b[eidx]
        viol = cand < r[au]
        if not viol.any():
            return Relaxed(r, None, rounds)
        au = au[viol]
        cand = cand[viol]
        np.minimum.at(r, au, cand)
        hit = cand == r[au]
        parent[au[hit]] = eidx[viol][hit]
        frontier[:] = False
        frontier[au] = True
        if (
            rounds % CYCLE_CHECK_EVERY == 0
            or rounds >= n
            or int((base - r).max()) > forest
        ):
            cycle = _parent_cycle(arcs, parent)
            if cycle is not None:
                return Relaxed(None, cycle, rounds)
    # Not reached: a round at or past n that still lowers a label
    # leaves a cycle in the parent graph (see above). Still changing
    # after n + 2 full rounds would prove a negative cycle regardless.
    return Relaxed(None, None, rounds)


@dataclasses.dataclass
class FeasibilityChecker:
    """Reusable per-graph state for fast period-feasibility probes.

    Everything that does not depend on the probed period is computed
    once in :meth:`build`: the static constraint arcs and the maximum
    single vertex delay (the immediate-reject bound).
    """

    wd: WDMatrices
    #: The edge and host rows (:func:`~repro.retime.constraints.static_rows`).
    static: np.ndarray
    n: int
    max_delay: float
    #: Per-period grouped probe arcs. Binary searches probe only a few
    #: dozen distinct periods, so the cache stays small; the arcs
    #: themselves are post-prune, i.e. a few thousand.
    arc_cache: Dict[float, Arcs] = dataclasses.field(default_factory=dict)
    #: :func:`relax` rounds of the last :meth:`refine` (0 for an
    #: immediate reject).
    last_rounds: int = 0
    #: The negative cycle that refuted the last :meth:`refine`, as
    #: ``(u, v, b)`` rows of its arcs in cycle order (constraint
    #: ``r(u) - r(v) <= b``, indices like ``wd.order``); ``None`` after
    #: a feasible probe or an immediate reject.
    last_cycle: Optional[np.ndarray] = None

    @classmethod
    def build(cls, graph: CircuitGraph, wd: WDMatrices) -> "FeasibilityChecker":
        """The checker of ``graph`` probing with its W/D matrices ``wd``."""
        return cls(
            wd=wd,
            static=static_rows(graph),
            n=len(wd.order),
            max_delay=wd.max_vertex_delay(),
        )

    @property
    def static_b(self) -> np.ndarray:
        """The bounds of the static rows, one per static arc."""
        return self.static["bound"]

    # ------------------------------------------------------------------
    def _probe_arcs(self, period: float) -> Arcs:
        """The grouped constraint arcs for one period, cached per period.

        The clocking rows are pruned
        (:func:`~repro.retime.constraints.clock_rows`) before the solve:
        the pruned system has the same solution set, so verdicts *and*
        relaxed labels are unchanged while the arc count falls by ~99%
        on the larger Table-1 circuits.
        """
        cached = self.arc_cache.get(period)
        if cached is not None:
            return cached
        rows = np.concatenate([self.static, clock_rows(self.wd, period, prune=True)])
        arcs = group_arcs(self.n, rows["u"], rows["v"], rows["bound"])
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
        depend on ``start``; only the cost does. :attr:`last_rounds`
        and :attr:`last_cycle` say how the verdict was reached.
        """
        self.last_rounds = 0
        self.last_cycle = None
        if self.max_delay > period:
            return None
        arcs = self._probe_arcs(period)
        out = relax(arcs, start)
        self.last_rounds = out.rounds
        if out.cycle is not None:
            c = out.cycle
            self.last_cycle = np.stack([arcs.u[c], arcs.v[c], arcs.b[c]], axis=1)
        return out.labels
