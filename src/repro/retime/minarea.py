"""Minimum-area and weighted minimum-area retiming (Sections 3.1 / 4.2).

Classic min-area retiming minimises the number of flip-flops
``N(G_r) = sum_e w_r(e)`` under the clock-period constraint. Expanding
``w_r``, the variable part of the objective is
``sum_v r(v) * (|FI(v)| - |FO(v)|)``.

The paper generalises this to *weighted* min-area retiming: an area
weight ``A(v)`` is attached to each unit, a flip-flop on connection
``(u, v)`` costs ``A(u)`` (it is placed in the fanin unit's tile), and
the variable part of the objective becomes
``sum_v r(v) * (fi(v) - fo(v))`` with ``fi(v) = sum_{u in FI(v)} A(u)``
and ``fo(v) = A(v) * |FO(v)|``. Uniform weights recover the classic
problem.

Both are solved exactly through the min-cost-flow dual
(:mod:`repro.retime.flow`). Real-valued weights are scaled to integers
per *unit* before forming the objective so that the coefficients still
sum to zero exactly.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Mapping, Optional, Sequence

from repro.errors import InfeasibleConstraintsError, InfeasiblePeriodError
from repro.netlist.graph import CircuitGraph
from repro.retime.constraints import ConstraintSystem, build_constraint_system
from repro.retime.flow import optimal_labels
from repro.retime.wd import WDMatrices, wd_matrices

#: Integer scaling factor for real-valued area weights.
WEIGHT_SCALE = 10_000


@dataclasses.dataclass
class RetimingResult:
    """A retiming solution: labels plus the retimed graph."""

    labels: Dict[str, int]
    graph: CircuitGraph
    period: Optional[float]
    total_ffs: int

    @property
    def moved_units(self) -> int:
        """Number of units with a non-zero retiming label."""
        return sum(1 for r in self.labels.values() if r != 0)


def retiming_objective(
    graph: CircuitGraph, weights: Optional[Mapping[str, float]] = None
) -> Dict[str, int]:
    """Integer objective coefficients ``c_v`` for (weighted) min-area.

    With ``weights`` omitted, every unit has weight 1 (classic
    min-area). The coefficients are built per connection from the
    scaled integer weight of the *fanin* unit, so they sum to zero
    exactly even after scaling.
    """
    if weights is None:
        scaled = {v: 1 for v in graph.units()}
    else:
        scaled = {
            v: max(1, int(round(weights.get(v, 1.0) * WEIGHT_SCALE)))
            for v in graph.units()
        }
    coeff: Dict[str, int] = {v: 0 for v in graph.units()}
    for (u, v, _key), _w in graph.connections():
        coeff[v] += scaled[u]  # fi(v) gains A(u)
        coeff[u] -= scaled[u]  # fo(u) gains A(u)
    return coeff


def normalise_labels(
    graph: CircuitGraph,
    labels: Dict[str, int],
    components: Optional[Sequence[frozenset]] = None,
) -> Dict[str, int]:
    """Shift labels so every host vertex sits at 0.

    Labels are translation-invariant per weakly-connected component;
    components containing a host are shifted by that host's label
    (hosts in one component are already equal by the host constraints),
    other components are left as-is.

    Components are taken from the graph's cache
    (:meth:`CircuitGraph.weakly_connected_components`) unless
    precomputed ones are passed in — LAC calls this every round on
    structurally identical graphs, so they are never recomputed there.
    """
    if components is None:
        components = graph.weakly_connected_components()
    hosts = set(graph.host_units())
    out = dict(labels)
    for comp in components:
        anchor = next((v for v in comp if v in hosts), None)
        if anchor is None:
            continue
        shift = out.get(anchor, 0)
        if shift:
            for v in comp:
                if v in out:
                    out[v] -= shift
    return out


def min_area_retiming(
    graph: CircuitGraph,
    period: float,
    weights: Optional[Mapping[str, float]] = None,
    wd: Optional[WDMatrices] = None,
    system: Optional[ConstraintSystem] = None,
    prune: bool = False,
) -> RetimingResult:
    """Exact (weighted) minimum-area retiming for a target clock period.

    Args:
        graph: The circuit to retime (not modified).
        period: Target clock period ``T_clk``.
        weights: Optional per-unit area weights ``A(v)``; uniform if
            omitted.
        wd: Precomputed W/D matrices (computed here if omitted).
        system: Precomputed constraint system for this ``period``; the
            paper's LAC loop exploits this to generate clocking
            constraints only once.
        prune: Apply redundancy pruning when generating constraints.

    Raises:
        InfeasiblePeriodError: No retiming meets the period.
    """
    if system is None:
        if wd is None:
            wd = wd_matrices(graph)
        system = build_constraint_system(graph, wd, period, prune=prune)
    objective = retiming_objective(graph, weights)
    try:
        labels = optimal_labels(system.constraints, objective)
    except InfeasibleConstraintsError as exc:
        raise InfeasiblePeriodError(period, str(exc)) from exc
    labels = {v: labels.get(v, 0) for v in graph.units()}
    labels = normalise_labels(graph, labels)
    retimed = graph.retimed(labels)
    return RetimingResult(
        labels=labels,
        graph=retimed,
        period=period,
        total_ffs=retimed.total_flip_flops(),
    )
