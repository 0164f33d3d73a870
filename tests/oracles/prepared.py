"""Reference mid-flow instance: the planner's stages wired by hand.

:func:`repro.experiments.fixtures.prepared_instance` takes its physical
context from one planner iteration; this module calls partition,
floorplan, tiles, routing, repeaters, expansion, W/D, the period search
and constraint generation directly, so a drift between the planner's
stage wiring and what the ablations expect to freeze shows up as a
field mismatch.
"""

from __future__ import annotations

from typing import Optional

from repro.core.planner import PlannerConfig
from repro.experiments.circuits import get_circuit
from repro.experiments.fixtures import PreparedInstance
from repro.floorplan.plan import build_floorplan
from repro.partition.multiway import default_block_count, partition_graph
from repro.repeater.insertion import buffer_routed_nets
from repro.retime.constraints import build_constraint_system
from repro.retime.expand import expand_interconnects
from repro.retime.minperiod import min_period_retiming
from repro.retime.wd import clock_period, wd_matrices
from repro.route.router import GlobalRouter, nets_from_graph
from repro.tiles.grid import build_tile_grid


def hand_wired_instance(
    name: str, config: Optional[PlannerConfig] = None
) -> PreparedInstance:
    """Run the flow for benchmark circuit ``name`` up to retiming."""
    spec = get_circuit(name)
    if config is None:
        config = PlannerConfig(**spec.plan_kwargs())
    graph = spec.build()
    hosts = set(graph.host_units())
    n_blocks = config.n_blocks or default_block_count(graph.num_units - len(hosts))
    partition = partition_graph(graph, n_blocks, seed=config.seed)
    plan = build_floorplan(
        graph,
        partition,
        seed=config.seed,
        whitespace=config.whitespace,
        iterations=config.floorplan_iterations,
    )
    grid = build_tile_grid(plan, config.tech)
    nets = nets_from_graph(graph, grid, plan, jitter_seed=config.seed)
    routed = GlobalRouter(grid).route(nets, rrr_passes=config.rrr_passes)
    buffered = buffer_routed_nets(routed, grid, config.tech)
    expanded = expand_interconnects(
        graph,
        buffered,
        grid,
        plan,
        jitter_seed=config.seed,
        max_units_per_connection=config.max_units_per_connection,
    )
    wd = wd_matrices(expanded.graph)
    t_init = clock_period(expanded.graph, wd)
    t_min, _ = min_period_retiming(expanded.graph)
    t_clk = t_min + config.target_fraction * (t_init - t_min)
    system = build_constraint_system(expanded.graph, t_clk)
    return PreparedInstance(
        name=name,
        config=config,
        floorplan=plan,
        grid=grid,
        expanded=expanded,
        wd=wd,
        t_init=t_init,
        t_min=t_min,
        t_clk=t_clk,
        system=system,
    )
