"""Prepared mid-flow instances for ablation benchmarks.

Ablations (alpha sweep, N_max sweep, pruning comparison) vary one knob
of LAC-retiming with the physical context frozen. This module plans one
iteration with :func:`~repro.core.planner.plan_interconnect` and hands
out its floorplan, tile grid, expanded circuit and ``T_init``/``T_min``/
``T_clk``. The W/D matrices and the constraint system, which a planning
outcome does not keep, come from the plan's own in-memory compile
artifact, whose retime stage already generated the ``T_clk`` clocking
pairs.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.compile import CompileCache
from repro.core.context import RunContext
from repro.core.planner import PlannerConfig, plan_interconnect
from repro.experiments.circuits import get_circuit
from repro.floorplan.plan import Floorplan
from repro.retime.constraints import ConstraintSystem, build_constraint_system
from repro.retime.expand import ExpandedCircuit
from repro.retime.wd import WDMatrices
from repro.tiles.grid import TileGrid


@dataclasses.dataclass
class PreparedInstance:
    """A circuit taken through the physical flow, ready for retiming."""

    name: str
    config: PlannerConfig
    floorplan: Floorplan
    grid: TileGrid
    expanded: ExpandedCircuit
    wd: WDMatrices
    t_init: float
    t_min: float
    t_clk: float
    system: ConstraintSystem


def prepared_instance(
    name: str, config: Optional[PlannerConfig] = None
) -> PreparedInstance:
    """The first planning iteration of benchmark circuit ``name``."""
    spec = get_circuit(name)
    if config is None:
        config = PlannerConfig(**spec.plan_kwargs())
    cache = CompileCache()
    first = plan_interconnect(
        spec.build(), config, ctx=RunContext(compile_cache=cache), max_iterations=1
    ).first
    graph = first.expanded.graph
    # A memory hit: the same object the plan compiled and solved with.
    compiled, _hit = cache.get_or_compile(graph, tech=config.tech)
    return PreparedInstance(
        name=name,
        config=config,
        floorplan=first.floorplan,
        grid=first.grid,
        expanded=first.expanded,
        wd=compiled.wd,
        t_init=first.t_init,
        t_min=first.t_min,
        t_clk=first.t_clk,
        system=build_constraint_system(graph, first.t_clk, compiled=compiled),
    )
