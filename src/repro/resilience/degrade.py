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

from repro.netlist.graph import CircuitGraph
from repro.retime.fastcheck import FeasibilityChecker
from repro.retime.wd import WDMatrices, candidate_periods, wd_matrices


def find_relaxed_period(
    graph: CircuitGraph,
    t_clk: float,
    t_init: float,
    wd: Optional[WDMatrices] = None,
    slack: float = 1e-9,
) -> Optional[float]:
    """Smallest achievable period in ``(t_clk, t_init]``, or ``None``.

    Candidates are the distinct finite ``D`` values plus ``t_init``
    itself; each probe is the dense checker's
    :meth:`~repro.retime.fastcheck.FeasibilityChecker.labels`, i.e. the
    retiming engine's one Bellman–Ford kernel from all-zero labels.
    Returns ``None`` when no candidate in range is feasible (only
    possible when ``t_init`` is not actually the circuit's current
    period).
    """
    if wd is None:
        wd = wd_matrices(graph)
    candidates = [
        p for p in candidate_periods(wd) if t_clk + slack < p <= t_init + slack
    ]
    if not candidates or candidates[-1] < t_init - slack:
        candidates.append(t_init)

    checker = FeasibilityChecker.build(graph, wd)
    if checker.labels(candidates[-1]) is None:
        return None
    lo, hi = 0, len(candidates) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if checker.labels(candidates[mid]) is not None:
            hi = mid
        else:
            lo = mid + 1
    return float(candidates[lo])
