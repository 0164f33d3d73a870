"""Graceful ``T_clk`` degradation.

When a planning iteration's target period is infeasible — the paper's
s1269 failure mode, where a fixed ``T_clk`` becomes unachievable after
a drastic floorplan revision — the resilient planner relaxes the
period rather than abandoning the iteration: binary-search the sorted
distinct ``D(u, v)`` values (the same candidate domain min-period
retiming uses — the optimum is always one of them) restricted to
``(T_clk, T_init]`` for the smallest achievable period. ``T_init`` is
always achievable (the identity retiming realises the current period),
so degradation succeeds whenever the bound holds.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.compile.artifact import CompiledCircuit
from repro.netlist.graph import CircuitGraph
from repro.retime.fastcheck import FeasibilityChecker
from repro.retime.minperiod import bisect_feasible


def find_relaxed_period(
    graph: CircuitGraph,
    t_clk: float,
    t_init: float,
    compiled: Optional[CompiledCircuit] = None,
    slack: float = 1e-9,
) -> Optional[float]:
    """Smallest achievable period in ``(t_clk, t_init]``, or ``None``.

    Candidates are the distinct finite ``D`` values of ``compiled`` (a
    :class:`~repro.compile.CompiledCircuit` of ``graph``, compiled here
    if omitted; its search inputs are rebuilt if it was loaded without
    them) plus ``t_init`` itself. The search is the min-period
    bisection (:func:`~repro.retime.minperiod.bisect_feasible`); each
    probe is the dense checker's
    :meth:`~repro.retime.fastcheck.FeasibilityChecker.check`, i.e. the
    retiming engine's one Bellman–Ford kernel from all-zero labels.
    Returns ``None`` when no candidate in range is feasible (only
    possible when ``t_init`` is not actually the circuit's current
    period).
    """
    compiled = CompiledCircuit.for_graph(graph, compiled)
    compiled.rebuild_search_inputs(graph, "degrade")
    lo, hi = np.searchsorted(
        compiled.candidates, [t_clk + slack, t_init + slack], side="right"
    )
    candidates = compiled.candidates[lo:hi].tolist()
    if not candidates or candidates[-1] < t_init - slack:
        candidates.append(t_init)

    checker = FeasibilityChecker.build(graph, compiled.wd)
    if checker.check(candidates[-1]) is None:
        return None
    first, _labels = bisect_feasible(
        0, len(candidates) - 1, lambda i, _warm: checker.check(candidates[i])
    )
    return float(candidates[first])
