"""Graceful ``T_clk`` degradation.

A later planning iteration inherits the first iteration's ``T_clk``;
after a drastic floorplan revision (the paper's s1269 failure mode)
that period can fall below the new expanded circuit's ``T_min``, so no
retiming meets it. Rather than abandon the iteration, the resilient
planner retimes at ``T_min`` and marks the iteration ``degraded``.

``T_min`` is already the answer of any search for the smallest
feasible period above an infeasible ``T_clk``: period feasibility is
monotone, and ``T_min`` is the smallest feasible candidate period
(:func:`~repro.retime.minperiod.min_period_retiming`). Conversely
every ``T_clk >= T_min`` is feasible, since its clocking rows are a
subset of ``T_min``'s. So the decision needs nothing but the two
numbers.
"""

from __future__ import annotations

from typing import Optional


def find_relaxed_period(t_clk: float, t_min: float) -> Optional[float]:
    """The period to retime at instead of ``t_clk``, or ``None`` when
    ``t_clk`` is feasible (``t_clk >= t_min``): ``t_min`` for a
    ``t_clk`` below it."""
    return t_min if t_clk < t_min else None
