"""Minimum-period retiming: a binary search over the candidate periods.

A classic Leiserson–Saxe result: the minimum achievable clock period is
always one of the finitely many distinct ``D(u, v)`` values, and a
period ``T`` is achievable iff the edge + clocking difference
constraints for ``T`` are satisfiable. Every probe of the search runs on
the dense checker (:class:`repro.retime.fastcheck.FeasibilityChecker`,
on the retiming engine's one Bellman–Ford kernel
:func:`~repro.retime.fastcheck.relax`), and the search exploits three
facts:

* candidates below the largest unit delay are infeasible, and the
  identity retiming (all-zero labels) is a witness at ``T_init``, so
  the search is clamped to the candidates in between for free;
* feasibility is monotone in the period, so a bisection over the
  sorted candidates (:func:`~repro.retime.wd.candidate_periods`, every
  distinct finite ``D``) finds the smallest feasible one: ``T_min`` is
  the minimum over the exact candidate set by construction;
* a feasible witness at one period is a legal warm start for every
  probe at a smaller period, so a feasible probe converges in a few
  rounds, and an infeasible one ends on the kernel's negative-cycle
  exit a few rounds after the cycle forms (by round eight on every
  Table-1 search).

Each probe is a ``feas/probe`` span: its candidate period ``t``, its
``verdict`` (``feasible`` or ``infeasible``), the kernel's ``rounds``
and, when infeasible, the length of the refuting negative cycle
(``cycle_len``). Every probe's clocking rows are a mask of one witness
table, covered once at the largest unit delay, the lowest candidate
the search can probe (a ``feas/witness`` span: ``floor``, ``pairs``,
``kept_at_floor``). That table serves every period at or above its
floor, so the planner hands it to the same iteration's constraint
build (:func:`~repro.retime.constraints.build_constraint_system`'s
``witness``), whose ``T_clk`` rows are then one more mask.

Everything the search reads — vertex order, W/D matrices, candidate
periods — comes from one :class:`~repro.compile.CompiledCircuit`, whose
order is ``list(graph.units())``, so labels pass between the checker
and the artifact as one int64 array. A graph with a zero-weight cycle
(a combinational loop) does not compile: it raises
:class:`~repro.errors.RetimingError`, as :meth:`CircuitGraph.validate`
does.

``T_min`` also settles graceful degradation: an inherited ``T_clk``
below it is infeasible and one at or above it feasible, so
:func:`~repro.resilience.degrade.find_relaxed_period` compares the two
numbers and never searches again.

The paper uses min-period retiming to establish ``T_min``, then sets
``T_clk`` 20% of the way from ``T_min`` up to ``T_init``.
"""

from __future__ import annotations

import logging
from typing import Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np

from repro.errors import RetimingError
from repro.netlist.graph import CircuitGraph
from repro.obs import NOOP_TRACER
from repro.retime.fastcheck import FeasibilityChecker
from repro.retime.minarea import RetimingResult, normalise_labels

log = logging.getLogger(__name__)


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
    """
    while lo < hi:
        mid = (lo + hi) // 2
        found = probe(mid, witness)
        if found is None:
            lo = mid + 1
        else:
            hi, witness = mid, found
    return hi, witness


class MinPeriod(NamedTuple):
    """What a min-period search finds (``min_period_retiming(...,
    search_only=True)``).

    ``period`` is ``T_min`` and ``labels`` its witness by unit name, as
    the search found it (hosts tied to one label, not shifted to 0).
    ``checker`` is the search's checker, whose witness table covers
    every period from the largest unit delay up; it is ``None`` when
    the witness was replayed from the artifact.
    """

    period: float
    labels: Dict[str, int]
    checker: Optional[FeasibilityChecker]


def _search(
    graph: CircuitGraph, compiled, tracer
) -> Tuple[float, np.ndarray, FeasibilityChecker]:
    """Bisect ``compiled.candidates`` on one checker (see module doc):
    ``(T_min, its witness labels, the checker)``."""
    candidates = compiled.candidates
    checker = FeasibilityChecker.build(graph, compiled.wd, tracer)
    # T_init is a D value, so a candidate, and the identity retiming
    # realises it: the bisection never needs to probe it.
    lo, hi = np.searchsorted(candidates, [checker.max_delay, compiled.t_init]).tolist()
    checker.cover(float(candidates[lo]))

    def probe(i: int, warm: np.ndarray) -> Optional[np.ndarray]:
        t = float(candidates[i])
        with tracer.span("feas/probe", t=t) as span:
            raw = checker.refine(t, warm)
            span.set(
                verdict="feasible" if raw is not None else "infeasible",
                rounds=checker.last_rounds,
            )
            if checker.last_cycle is not None:
                span.set(cycle_len=len(checker.last_cycle))
        return raw

    idx, raw = bisect_feasible(
        lo, hi, probe, np.zeros(checker.n, dtype=np.int64)
    )
    return float(candidates[idx]), raw, checker


def min_period_retiming(
    graph: CircuitGraph,
    tracer=None,
    compiled=None,
    *,
    search_only: bool = False,
) -> Tuple[float, RetimingResult]:
    """Find the minimum feasible period and a retiming achieving it.

    Returns ``(T_min, result)``: a bisection over the candidate periods
    on the dense checker (see the module docstring), then the witness
    normalised (hosts at 0) and applied to ``graph``. With
    ``search_only`` the second element is the search's
    :class:`MinPeriod` instead, and no retimed graph is built (the
    planner needs only ``T_min`` and the search's witness table).

    ``tracer`` (a :class:`repro.obs.Tracer`) wraps the whole search in
    a ``min_period/search`` span; the witness-table build and every
    probe become child spans.

    ``compiled`` (a :class:`repro.compile.CompiledCircuit` of this
    graph; compiled here if omitted) supplies the W/D matrices and the
    candidate periods, rebuilding them from ``graph`` first if it was
    loaded from disk without them. If it already carries a min-period
    witness from a previous identical run, the search is skipped and
    the witness replayed (the outcome is bit-identical: the witness
    *is* the previous search's result); otherwise the search records
    its outcome on the artifact.

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
    checker = None
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
        if not compiled.candidates.size:
            raise RetimingError("graph has no paths; period undefined")
        with tracer.span("min_period/search") as search:
            period, raw, checker = _search(graph, compiled, tracer)
            labels = dict(zip(compiled.order, raw.tolist()))
            compiled.note_min_period(period, labels)
            search.set(
                engine="bellman-ford",
                n_candidates=compiled.n_candidates,
                t_min=period,
            )
    log.debug(
        "min-period search on %s: T_min=%.4f over %d candidates",
        graph.name,
        period,
        compiled.n_candidates,
    )
    if search_only:
        return period, MinPeriod(period, labels, checker)

    labels = normalise_labels(graph, {v: labels.get(v, 0) for v in graph.units()})
    retimed = graph.retimed(labels)
    result = RetimingResult(
        labels=labels,
        graph=retimed,
        period=period,
        total_ffs=retimed.total_flip_flops(),
    )
    return period, result
