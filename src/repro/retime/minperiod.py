"""Minimum-period retiming: binary search over candidate periods.

A classic Leiserson–Saxe result: the minimum achievable clock period is
always one of the finitely many distinct ``D(u, v)`` values, and a
period ``T`` is achievable iff the edge + clocking difference
constraints for ``T`` are satisfiable. Feasibility probes run on the
sparse vectorised FEAS engine
(:mod:`repro.retime.feas_probe`); the search exploits three facts:

* candidates below the maximum single-vertex delay are infeasible and
  candidates at or above the initial clock period are feasible with the
  identity retiming, so the search is clamped to that window for free;
* a feasible witness at one period is a legal warm start for every
  probe at a smaller period, so feasible probes converge in a handful
  of FEAS rounds;
* infeasible probes are the expensive case for FEAS (its sound
  certificate needs up to ``|V|`` rounds), so the binary search runs
  *budgeted* probes — "not verified within the budget" is treated as
  tentatively infeasible — and afterwards certifies the single
  boundary candidate below the best verified period with one sound
  probe on the dense checker, whose negative-cycle exit refutes it in
  a few rounds (eight on every Table-1 certificate). Feasibility is
  monotone in the period, so that one certificate pins down the exact
  minimum; if it instead uncovers a feasible period the search resumes
  below it with a larger budget (each resume strictly lowers the best
  index, so this terminates).

The budget is small on purpose. An unverified probe always spends its
whole budget, while a verified one (warm-started from the witness of a
larger feasible period) needs only a few rounds: across the Table-1
searches no verified probe needed more than 4, yet with a budget of 64
the unverified probes burnt 97% of all FEAS rounds. A budget of 8 keeps
every verdict of those searches, and a budget that is too small costs
at most a certification plus a resume (``resumes`` on the search span),
never a wrong ``T_min``.

The dense checker (:class:`repro.retime.fastcheck.FeasibilityChecker`,
on the retiming engine's one Bellman–Ford kernel
:func:`~repro.retime.fastcheck.relax`) certifies the boundary
candidate. Its infeasible verdicts come with a negative cycle of the
period's constraint system; the ``feas/certify`` and ``feas/refine``
spans record the kernel's ``rounds`` and, when infeasible, the cycle's
length (``cycle_len``). One checker serves a search, and its clocking
rows come from one witness table, built at the first certification
(or at the lowest exact-tie candidate) and rebuilt only by a resume,
whose certification probes lower; each build is a ``feas/witness``
span (``floor``, ``pairs``, ``kept_at_floor``).

Everything the search reads — vertex order, W/D matrices, candidate
sets, FEAS arrays — comes from one
:class:`~repro.compile.CompiledCircuit`, and all three orders are
``list(graph.units())``, so labels pass between the FEAS engine, the
dense checker and the artifact as one int64 array. A graph with a
zero-weight cycle (a combinational loop) has no FEAS arrays; compiling
it raises :class:`~repro.errors.RetimingError`, as
:meth:`CircuitGraph.validate` does.

The search runs over *merged* candidates (:func:`candidate_periods`
collapses float-noise runs of ``D`` values), so every search finishes
with an exact-tie refinement: a warm-started bisection over the few
exact ``D`` values inside the winning run, decided by the exact
checker (:meth:`FeasibilityChecker.refine`). ``T_min`` is therefore
the minimum over the *exact* candidate set, not the merged one. The
FEAS phase, the refinement and the degrade path's
:func:`~repro.resilience.degrade.find_relaxed_period` share one
bisection, :func:`bisect_feasible`.

The paper uses min-period retiming to establish ``T_min``, then sets
``T_clk`` 20% of the way from ``T_min`` up to ``T_init``.
"""

from __future__ import annotations

import bisect
import logging
from typing import Callable, Optional, Tuple

import numpy as np

from repro.errors import RetimingError
from repro.netlist.graph import CircuitGraph
from repro.obs import NOOP_TRACER
from repro.retime.fastcheck import FeasibilityChecker
from repro.retime.minarea import RetimingResult, normalise_labels

log = logging.getLogger(__name__)

#: Initial FEAS round budget for tentative probes inside the binary
#: search (quadrupled on every boundary-certification miss). See the
#: module docstring for why 8.
_INITIAL_BUDGET = 8


def bisect_feasible(
    lo: int,
    hi: int,
    probe: Callable[[int, Optional[np.ndarray]], Optional[np.ndarray]],
    witness: Optional[np.ndarray] = None,
) -> Tuple[int, Optional[np.ndarray]]:
    """The first index in ``[lo, hi)`` that ``probe`` accepts.

    ``probe(i, witness)`` returns a witness (accepted) or ``None``
    (rejected); acceptance must be monotone in ``i``. Every probe gets
    the witness of the last accepted one as its warm start (the given
    ``witness`` until one is accepted). Returns ``(i, witness)``, with
    ``i == hi`` and the given ``witness`` when none was accepted.

    The one bisection of the period searches: the FEAS phase and the
    exact-tie refinement here, and
    :func:`repro.resilience.degrade.find_relaxed_period`.
    """
    while lo < hi:
        mid = (lo + hi) // 2
        found = probe(mid, witness)
        if found is None:
            lo = mid + 1
        else:
            hi, witness = mid, found
    return hi, witness


def _record_verdict(span, checker: FeasibilityChecker, feasible: bool) -> None:
    """Set a dense probe span's ``verdict`` and ``rounds``, and the
    length of the refuting negative cycle (``cycle_len``) when there is
    one."""
    span.set(
        verdict="feasible" if feasible else "infeasible",
        rounds=checker.last_rounds,
    )
    if checker.last_cycle is not None:
        span.set(cycle_len=len(checker.last_cycle))


def _feas_search(
    graph: CircuitGraph, compiled, tracer=NOOP_TRACER
) -> Tuple[float, np.ndarray, Optional[float], Optional[FeasibilityChecker]]:
    """Clamped, warm-started, budgeted binary search (see module doc).

    Returns the best (merged) candidate, its witness labels with the
    hosts at 0, the largest candidate certified infeasible (``None`` if
    the search never moved above the first candidate), and the dense
    checker if a certification built one.

    Records on the enclosing ``min_period/search`` span the FEAS rounds
    of all budgeted probes (``feas_rounds``), the share spent by
    unverified ones (``unverified_rounds``), and the certifications
    that found a feasible period and resumed the search (``resumes``).

    The (rare — usually one per search) boundary certification runs on
    the Bellman–Ford checker: FEAS's infeasibility certificate needs up
    to ``|V|`` increments of one vertex and increments interleave, so
    certifying a near-feasible period can take several thousand rounds
    where one warm-started exact relaxation
    (:meth:`FeasibilityChecker.refine`, seeded with the witness of the
    best verified period) finds a negative cycle of the pruned
    constraint arcs in a few rounds.
    """
    engine = compiled.feas_probe()
    candidates = compiled.candidates
    checker: Optional[FeasibilityChecker] = None
    budget = _INITIAL_BUDGET
    feas_rounds = unverified_rounds = resumes = 0

    def budgeted_probe(idx: int, start: np.ndarray) -> Optional[np.ndarray]:
        nonlocal feas_rounds, unverified_rounds
        with tracer.span("feas/probe", t=candidates[idx], budget=budget) as span:
            verified, raw = engine.probe_budget(candidates[idx], start, budget)
            verdict = "feasible" if verified else "unverified"
            span.set(verdict=verdict, rounds=engine.last_rounds)
        feas_rounds += engine.last_rounds
        if not verified:
            unverified_rounds += engine.last_rounds
        return raw

    def sound_probe(idx: int, start: np.ndarray) -> Optional[np.ndarray]:
        nonlocal checker
        with tracer.span(
            "feas/certify", t=candidates[idx], method="bellman-ford"
        ) as span:
            if checker is None:
                checker = FeasibilityChecker.build(graph, compiled.wd, tracer)
            raw = checker.refine(candidates[idx], start)
            _record_verdict(span, checker, raw is not None)
        return raw

    # Clamp the window: below the max vertex delay nothing is feasible;
    # at the first candidate >= the current clock period the identity
    # retiming (all-zero labels) is a free witness.
    floor = bisect.bisect_left(candidates, engine.max_delay)
    hi = bisect.bisect_left(candidates, compiled.t_init)
    best_idx = min(hi, len(candidates) - 1)
    best_raw = np.zeros(engine.n, dtype=np.int64)
    while True:
        best_idx, best_raw = bisect_feasible(
            floor, best_idx, budgeted_probe, best_raw
        )
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
        resumes += 1
    tracer.current.set(
        feas_rounds=feas_rounds,
        unverified_rounds=unverified_rounds,
        resumes=resumes,
    )
    if engine.host_idx.size:
        best_raw = best_raw - best_raw[engine.host_idx[0]]
    lower = candidates[best_idx - 1] if best_idx > 0 else None
    return candidates[best_idx], best_raw, lower, checker


def _refine_exact(
    graph: CircuitGraph,
    compiled,
    period: float,
    labels: np.ndarray,
    lower: Optional[float],
    checker: Optional[FeasibilityChecker],
    tracer=NOOP_TRACER,
) -> Tuple[float, np.ndarray]:
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
    exact = compiled.exact_candidates
    lo = bisect.bisect_right(exact, lower) if lower is not None else 0
    hi = bisect.bisect_left(exact, period)
    max_delay = compiled.wd.max_vertex_delay()
    domain = [t for t in exact[lo:hi] if t >= max_delay]
    if not domain:
        return period, labels
    domain.append(period)
    if checker is None:
        checker = FeasibilityChecker.build(graph, compiled.wd, tracer)
    # The refinement probes only at or above domain[0]: one witness
    # table serves them all.
    checker.cover(domain[0])

    def refine_probe(t: float, warm: np.ndarray) -> Optional[np.ndarray]:
        with tracer.span("feas/refine", t=t) as span:
            raw = checker.refine(t, warm)
            _record_verdict(span, checker, raw is not None)
        return raw

    idx, raw = bisect_feasible(
        0, len(domain), lambda i, warm: refine_probe(domain[i], warm), labels
    )
    if idx < len(domain):
        return domain[idx], raw
    # Even the searched winner fails the exact check — possible only at
    # a knife edge where the FEAS epsilon absorbed a real sub-tolerance
    # violation. Walk up to the first exact winner.
    for t in exact[bisect.bisect_right(exact, period):]:
        raw = refine_probe(t, labels)
        if raw is not None:
            return t, raw
    raise RetimingError("no feasible candidate period")  # pragma: no cover


def min_period_retiming(
    graph: CircuitGraph,
    tracer=None,
    compiled=None,
) -> Tuple[float, RetimingResult]:
    """Find the minimum feasible period and a retiming achieving it.

    Returns ``(T_min, result)``; binary-searches the sorted distinct
    ``D`` values with FEAS probes, certifies the boundary and breaks
    exact ties on the Bellman–Ford checker (see the module docstring).

    ``tracer`` (a :class:`repro.obs.Tracer`) wraps the whole search in
    a ``min_period/search`` span; every budgeted probe, boundary
    certification and exact-tie refinement becomes a child span with
    its candidate period, verdict, and FEAS round count.

    ``compiled`` (a :class:`repro.compile.CompiledCircuit` of this
    graph; compiled here if omitted) supplies the W/D matrices,
    candidate sets and FEAS arrays, rebuilding them from ``graph``
    first if it was loaded from disk without them. If it already
    carries a min-period witness from a previous identical run, the
    search is skipped outright and the witness replayed (the outcome is
    bit-identical — the witness *is* the previous search's
    pre-normalise result).

    Raises:
        RetimingError: ``graph`` has a zero-weight cycle (a
            combinational loop, which :meth:`CircuitGraph.validate`
            rejects too), or no paths.
        ValueError: ``compiled`` is the artifact of another graph.
    """
    # repro.compile imports this package, so the artifact class loads late.
    from repro.compile.artifact import CompiledCircuit

    if tracer is None:
        tracer = NOOP_TRACER
    compiled = CompiledCircuit.for_graph(graph, compiled)
    if compiled.t_min is not None and compiled.t_min_labels is not None:
        with tracer.span("min_period/search") as search:
            period = compiled.t_min
            labels = dict(compiled.t_min_labels)
            search.set(
                engine="cache",
                cache_hit=True,
                n_candidates=compiled.n_candidates,
                t_min=period,
            )
    else:
        compiled.rebuild_search_inputs(graph, "min_period", tracer=tracer)
        if not compiled.candidates:
            raise RetimingError("graph has no paths; period undefined")
        with tracer.span("min_period/search") as search:
            period, raw, lower, checker = _feas_search(graph, compiled, tracer)
            period, raw = _refine_exact(
                graph, compiled, period, raw, lower, checker, tracer=tracer
            )
            labels = dict(zip(compiled.order, raw.tolist()))
            compiled.note_min_period(period, labels)
            search.set(
                engine="feas",
                n_candidates=compiled.n_candidates,
                t_min=period,
            )
    log.debug(
        "min-period search on %s: T_min=%.4f over %d candidates",
        graph.name,
        period,
        compiled.n_candidates,
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
