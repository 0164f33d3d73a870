"""Minimum-period retiming: binary search over candidate periods.

A classic Leiserson–Saxe result: the minimum achievable clock period is
always one of the finitely many distinct ``D(u, v)`` values, and a
period ``T`` is achievable iff the edge + clocking difference
constraints for ``T`` are satisfiable. Feasibility probes run, by
default, on the sparse vectorised FEAS engine
(:mod:`repro.retime.feas_probe`); the search exploits three facts:

* candidates below the maximum single-vertex delay are infeasible and
  candidates at or above the initial clock period are feasible with the
  identity retiming, so the search is clamped to that window for free;
* a feasible witness at one period is a legal warm start for every
  probe at a smaller period, so feasible probes converge in a handful
  of FEAS rounds;
* infeasible probes are the expensive case for FEAS (the sound
  certificate needs up to ``|V|`` rounds), so the binary search runs
  *budgeted* probes — "not verified within the budget" is treated as
  tentatively infeasible — and afterwards certifies the single
  boundary candidate below the best verified period with one sound
  probe. Feasibility is monotone in the period, so that one
  certificate pins down the exact minimum; if it instead uncovers a
  feasible period the search resumes below it with a larger budget
  (each resume strictly lowers the best index, so this terminates).

The dense Bellman–Ford checker (:mod:`repro.retime.fastcheck`)
certifies the boundary candidate, and runs the whole search when
:meth:`FeasProbe.build` rejects the graph.

The search runs over *merged* candidates (:func:`candidate_periods`
collapses float-noise runs of ``D`` values), so every search finishes
with an exact-tie refinement: a warm-started bisection over the few
exact ``D`` values inside the winning run, decided by the exact
checker (:meth:`FeasibilityChecker.refine`). ``T_min`` is therefore
the minimum over the *exact* candidate set and does not depend on
which checker decided the search.

The paper uses min-period retiming to establish ``T_min``, then sets
``T_clk`` 20% of the way from ``T_min`` up to ``T_init``.
"""

from __future__ import annotations

import bisect
import logging
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import InfeasiblePeriodError, RetimingError
from repro.netlist.graph import CircuitGraph
from repro.obs import NOOP_TRACER
from repro.retime.fastcheck import FeasibilityChecker
from repro.retime.feas_probe import FeasProbe
from repro.retime.minarea import RetimingResult, normalise_labels
from repro.retime.wd import WDMatrices, candidate_periods, wd_matrices

log = logging.getLogger(__name__)

#: Initial FEAS round budget for tentative probes inside the binary
#: search (quadrupled on every boundary-certification miss).
_INITIAL_BUDGET = 64


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


#: Result of one candidate search: the best (merged) candidate, its
#: witness labels, the largest candidate certified infeasible (``None``
#: if the search never moved above the first candidate), and the dense
#: checker if the search happened to build one.
_SearchResult = Tuple[
    float, Dict[str, int], Optional[float], Optional[FeasibilityChecker]
]


def _feas_search(
    engine: FeasProbe,
    graph: CircuitGraph,
    wd: WDMatrices,
    candidates,
    tracer=NOOP_TRACER,
) -> _SearchResult:
    """Clamped, warm-started, budgeted binary search (see module doc).

    The (rare — usually one per search) boundary certification runs on
    the Bellman–Ford checker: FEAS's infeasibility certificate needs up
    to ``|V|`` increments of one vertex and increments interleave, so
    certifying a near-feasible period can take several thousand rounds
    where one warm-started exact relaxation
    (:meth:`FeasibilityChecker.refine`, seeded with the witness of the
    best verified period) converges in a handful of rounds over the
    pruned constraint arcs.
    """
    checker: Optional[FeasibilityChecker] = None
    perm: Optional[np.ndarray] = None  # engine position -> wd position

    def sound_probe(
        idx: int, start: Optional[np.ndarray]
    ) -> Optional[np.ndarray]:
        nonlocal checker, perm
        with tracer.span(
            "feas/certify", t=candidates[idx], method="bellman-ford"
        ) as span:
            if checker is None:
                checker = FeasibilityChecker.build(graph, wd)
                perm = np.array(
                    [wd.index[v] for v in engine.order], dtype=np.int64
                )
            warm = np.zeros(engine.n, dtype=np.int64)
            if start is not None:
                warm[perm] = start
            refined = checker.refine(candidates[idx], warm)
            raw = None if refined is None else refined[perm]
            verdict = "infeasible" if raw is None else "feasible"
            span.set(verdict=verdict)
            tracer.metrics.counter(
                "feas_probes_total", kind="certify", verdict=verdict
            ).inc()
        return raw

    # Clamp the window: below the max vertex delay nothing is feasible;
    # at the first candidate >= the current clock period the identity
    # retiming (all-zero labels) is a free witness.
    floor = bisect.bisect_left(candidates, engine.max_delay)
    hi = bisect.bisect_left(candidates, clock_period(graph, wd))
    best_idx = min(hi, len(candidates) - 1)
    best_raw = np.zeros(engine.n, dtype=np.int64)

    budget = _INITIAL_BUDGET
    while True:
        lo, cur_hi = floor, best_idx
        while lo < cur_hi:
            mid = (lo + cur_hi) // 2
            with tracer.span(
                "feas/probe", t=candidates[mid], budget=budget
            ) as span:
                verified, raw = engine.probe_budget(
                    candidates[mid], best_raw, budget
                )
                verdict = "feasible" if verified else "unverified"
                span.set(verdict=verdict, rounds=engine.last_rounds)
                tracer.metrics.counter(
                    "feas_probes_total", kind="probe", verdict=verdict
                ).inc()
            if verified:
                best_idx, best_raw = mid, raw
                cur_hi = mid
            else:
                lo = mid + 1
        if best_idx == floor:
            # Candidates below the floor are < max vertex delay:
            # infeasible with certainty, nothing left to certify.
            break
        raw = sound_probe(best_idx - 1, best_raw)
        if raw is None:
            # Sound infeasibility one step below the best verified
            # period: monotonicity makes the best period the minimum.
            break
        best_idx, best_raw = best_idx - 1, raw
        budget *= 4
    lower = candidates[best_idx - 1] if best_idx > 0 else None
    return candidates[best_idx], engine.label_dict(best_raw), lower, checker


def _bellman_ford_search(
    graph: CircuitGraph, wd: WDMatrices, candidates, tracer=NOOP_TRACER
) -> _SearchResult:
    """Binary search with the dense Bellman–Ford checker.

    The fallback for graphs :meth:`FeasProbe.build` rejects.
    """
    checker = FeasibilityChecker.build(graph, wd)

    def probe(t: float) -> Optional[Dict[str, int]]:
        with tracer.span("feas/probe", t=t, method="bellman-ford") as span:
            labels = checker.labels(t)
            verdict = "infeasible" if labels is None else "feasible"
            span.set(verdict=verdict)
            tracer.metrics.counter(
                "feas_probes_total", kind="probe", verdict=verdict
            ).inc()
        return labels

    lo, hi = 0, len(candidates) - 1
    if (labels := probe(candidates[hi])) is None:
        raise InfeasiblePeriodError(
            candidates[hi], "even the largest candidate period is infeasible"
        )
    best = (candidates[hi], labels)
    while lo < hi:
        mid = (lo + hi) // 2
        labels = probe(candidates[mid])
        if labels is not None:
            best = (candidates[mid], labels)
            hi = mid
        else:
            lo = mid + 1
    lower = candidates[lo - 1] if lo > 0 else None
    return best[0], best[1], lower, checker


def _refine_exact(
    graph: CircuitGraph,
    wd: WDMatrices,
    period: float,
    labels: Dict[str, int],
    lower: Optional[float],
    checker: Optional[FeasibilityChecker],
    tracer=NOOP_TRACER,
    exact: Optional[list] = None,
) -> Tuple[float, Dict[str, int]]:
    """Tighten a merged-candidate winner to the exact minimum.

    :func:`candidate_periods` merges runs of near-equal ``D`` values to
    the run's largest member, so the searched winner can sit up to the
    merge tolerance above the true minimum over *exact* candidates.
    Everything at or below ``lower`` is certified infeasible and the
    run's members are within the FEAS epsilon of each other, so the tie
    is broken with the exact warm-started checker
    (:meth:`FeasibilityChecker.refine`): a bisection over the handful
    of exact values between ``lower`` and ``period``.
    """
    if exact is None:
        exact = candidate_periods(wd, tol=0.0)
    lo = bisect.bisect_right(exact, lower) if lower is not None else 0
    hi = bisect.bisect_left(exact, period)
    max_delay = wd.max_vertex_delay()
    domain = [t for t in exact[lo:hi] if t >= max_delay]
    if not domain:
        return period, labels
    domain.append(period)
    if checker is None:
        checker = FeasibilityChecker.build(graph, wd)
    start = np.array(
        [labels.get(v, 0) for v in wd.order], dtype=np.int64
    )
    def refine_probe(t: float, warm: np.ndarray) -> Optional[np.ndarray]:
        with tracer.span("feas/refine", t=t) as span:
            raw = checker.refine(t, warm)
            span.set(verdict="infeasible" if raw is None else "feasible")
        return raw

    best: Optional[Tuple[float, np.ndarray]] = None
    lo_i, hi_i = 0, len(domain)
    while lo_i < hi_i:
        mid = (lo_i + hi_i) // 2
        raw = refine_probe(domain[mid], start)
        if raw is not None:
            best = (domain[mid], raw)
            start = raw
            hi_i = mid
        else:
            lo_i = mid + 1
    if best is None:
        # Even the searched winner fails the exact check — possible
        # only at a knife edge where the FEAS epsilon absorbed a real
        # sub-tolerance violation. Walk up to the first exact winner.
        for t in exact[bisect.bisect_right(exact, period):]:
            raw = refine_probe(t, start)
            if raw is not None:
                best = (t, raw)
                break
        if best is None:  # pragma: no cover - T_init is always feasible
            raise RetimingError("no feasible candidate period")
    t, raw = best
    return t, {v: int(raw[i]) for v, i in wd.index.items()}


def min_period_retiming(
    graph: CircuitGraph,
    wd: Optional[WDMatrices] = None,
    tracer=None,
    compiled=None,
) -> Tuple[float, RetimingResult]:
    """Find the minimum feasible period and a retiming achieving it.

    Returns ``(T_min, result)``; binary-searches the sorted distinct
    ``D`` values. Probes run on the sparse FEAS engine; when
    :meth:`FeasProbe.build` rejects the graph (e.g. a zero-delay unit
    with a zero-weight self-loop) the whole search runs on the dense
    Bellman–Ford checker instead. Both decide feasibility exactly, so
    ``T_min`` does not depend on which one ran (the witness retiming
    may differ).

    ``tracer`` (a :class:`repro.obs.Tracer`) wraps the whole search in
    a ``min_period/search`` span; every budgeted probe, boundary
    certification and exact-tie refinement becomes a child span with
    its candidate period, verdict, and FEAS round count.

    ``compiled`` (a :class:`repro.compile.CompiledCircuit` of this
    graph) supplies the W/D matrices, candidate sets and FEAS arrays
    precomputed; if it already carries a min-period witness from a
    previous identical run, the search is skipped outright and the
    witness replayed (the outcome is bit-identical — the witness *is*
    the previous search's pre-normalise result).
    """
    if tracer is None:
        tracer = NOOP_TRACER
    if compiled is not None:
        wd = compiled.wd
        candidates = compiled.candidates
    else:
        if wd is None:
            wd = wd_matrices(graph)
        candidates = candidate_periods(wd)
    if not candidates:
        raise RetimingError("graph has no paths; period undefined")

    replay = (
        compiled is not None
        and compiled.t_min is not None
        and compiled.t_min_labels is not None
    )
    with tracer.span("min_period/search") as search:
        if replay:
            period = compiled.t_min
            labels: Dict[str, int] = dict(compiled.t_min_labels)
            search.set(
                engine="cache",
                cache_hit=True,
                n_candidates=len(candidates),
                t_min=period,
            )
        else:
            engine: Optional[FeasProbe] = None
            if compiled is not None:
                # compile() already ran FeasProbe.build; None means the
                # graph was rejected.
                engine = compiled.feas_probe()
            else:
                try:
                    engine = FeasProbe.build(graph)
                except RetimingError:
                    pass
            if engine is None:
                log.debug(
                    "FEAS engine unavailable for %s; using Bellman-Ford",
                    graph.name,
                )
                period, labels, lower, checker = _bellman_ford_search(
                    graph, wd, candidates, tracer=tracer
                )
            else:
                period, labels, lower, checker = _feas_search(
                    engine, graph, wd, candidates, tracer=tracer
                )
            period, labels = _refine_exact(
                graph,
                wd,
                period,
                labels,
                lower,
                checker,
                tracer=tracer,
                exact=compiled.exact_candidates if compiled is not None else None,
            )
            if compiled is not None:
                compiled.note_min_period(period, labels)
            search.set(
                engine="feas" if engine is not None else "bellman-ford",
                n_candidates=len(candidates),
                t_min=period,
            )
    log.debug(
        "min-period search on %s: T_min=%.4f over %d candidates",
        graph.name,
        period,
        len(candidates),
    )

    labels = normalise_labels(graph, {v: labels.get(v, 0) for v in graph.units()})
    retimed = graph.retimed(labels)
    result = RetimingResult(
        labels=labels,
        graph=retimed,
        period=period,
        total_ffs=retimed.total_flip_flops(),
    )
    return period, result
