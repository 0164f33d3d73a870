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

Both are solved exactly by the one min-area solver,
:class:`repro.retime.incremental.IncrementalMinArea` (HiGHS dual
simplex on the LP over the constraint table of
:func:`~repro.retime.constraints.build_constraint_system`). Its
:meth:`~repro.retime.incremental.IncrementalMinArea.objective_coefficients`
scales real-valued weights to integers per *unit* (:data:`WEIGHT_SCALE`)
before forming the objective, so the coefficients still sum to zero
exactly.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Sequence

from repro.errors import InfeasibleConstraintsError, InfeasiblePeriodError
from repro.netlist.graph import CircuitGraph
from repro.retime.constraints import build_constraint_system

if TYPE_CHECKING:
    from repro.retime.incremental import IncrementalMinArea

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
    compiled=None,
    solver: Optional["IncrementalMinArea"] = None,
) -> RetimingResult:
    """Exact (weighted) minimum-area retiming for a target clock period.

    Args:
        graph: The circuit to retime (not modified).
        period: Target clock period ``T_clk``.
        weights: Optional per-unit area weights ``A(v)``; uniform if
            omitted.
        compiled: The :class:`repro.compile.CompiledCircuit` of
            ``graph`` the constraints are read from (compiled here if
            omitted).
        solver: An :class:`~repro.retime.incremental.IncrementalMinArea`
            over this graph's constraint system for ``period``
            (``compiled`` is then unused); built here if omitted. The
            planner passes the one LAC-retiming re-solves, so the
            baseline and LAC's first round share a solve.

    Raises:
        InfeasiblePeriodError: No retiming meets the period.
    """
    # Imported here: the incremental solver imports this module's
    # weight scale and label normalisation.
    from repro.retime.incremental import IncrementalMinArea

    if solver is None:
        system = build_constraint_system(graph, period, compiled=compiled)
        solver = IncrementalMinArea(graph, system)
    try:
        labels = solver.solve(weights)
    except InfeasibleConstraintsError as exc:
        raise InfeasiblePeriodError(period, str(exc)) from exc
    retimed = graph.retimed(labels)
    return RetimingResult(
        labels=labels,
        graph=retimed,
        period=period,
        total_ffs=retimed.total_flip_flops(),
    )
