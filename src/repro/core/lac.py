"""LAC-retiming: the paper's core contribution (Section 4.2).

The local area constrained retiming problem — find a retiming that
meets the clock period while respecting every tile's insertion
capacity (Eqns. (1)–(3)) — is an ILP, so the paper solves it
heuristically as a **series of weighted min-area retimings**:

1. generate edge and clocking constraints *once*;
2. start from uniform unit weights;
3. solve weighted min-area retiming;
4. compute per-tile area consumption ``AC(t)``;
5. stop if all tiles fit, or if no improvement for ``N_max``
   consecutive rounds;
6. otherwise reweight every tile::

       new_w(t) = prev_w(t) * ((1 - alpha) + alpha * AC(t) / C(t))

   assign the tile's weight to all units in it, and go to 3.

``alpha ~ 0.2`` is the paper's recommended damping. The best solution
seen (fewest violating flip-flops ``N_FOA``, ties broken by total
flip-flops ``N_F``) is returned, together with ``N_wr``, the number of
weighted min-area solves — both reported in Table 1.
"""

from __future__ import annotations

import dataclasses
import logging
import time
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.metrics import AreaAccountant, AreaReport
from repro.netlist.graph import CircuitGraph
from repro.obs import NOOP_TRACER
from repro.retime.constraints import build_constraint_system
from repro.retime.expand import IO_REGION
from repro.retime.incremental import IncrementalMinArea
from repro.retime.minarea import RetimingResult
from repro.retime.wd import WDMatrices, wd_matrices
from repro.tech.params import DEFAULT_TECH, Technology
from repro.tiles.grid import TileGrid

log = logging.getLogger(__name__)

#: Clamp for tile weights, keeping the integer scaling well conditioned.
WEIGHT_MIN = 1e-3
WEIGHT_MAX = 1e3


@dataclasses.dataclass
class LACResult:
    """Outcome of LAC-retiming."""

    retiming: RetimingResult
    report: AreaReport
    n_wr: int
    tile_weights: Dict[str, float]
    history: List[Tuple[int, int]]  # (N_FOA, N_F) per round
    round_seconds: List[float] = dataclasses.field(default_factory=list)
    solver_stats: Optional[Dict[str, object]] = None  # IncrementalStats.to_dict()

    @property
    def n_foa(self) -> int:
        return self.report.n_foa


def lac_retiming(
    graph: CircuitGraph,
    unit_region: Mapping[str, str],
    grid: TileGrid,
    period: float,
    tech: Technology = DEFAULT_TECH,
    alpha: float = 0.2,
    n_max: int = 5,
    max_rounds: int = 30,
    prune: bool = True,
    wd: Optional[WDMatrices] = None,
    system=None,
    tracer=None,
    compiled=None,
) -> LACResult:
    """Run the paper's LAC-retiming heuristic.

    Args:
        graph: Expanded retiming graph (logic + interconnect units).
        unit_region: Capacity region of each unit.
        grid: Tile grid; ``grid.used`` must already contain repeater
            area so remaining capacity matches the paper's ``C(t)``.
        period: Target clock period ``T_clk``.
        tech: Technology constants (flip-flop area).
        alpha: Reweighting damping coefficient (paper recommends 0.2).
        n_max: Stop after this many consecutive non-improving rounds.
        max_rounds: Hard cap on weighted min-area solves.
        prune: Apply clocking-constraint redundancy pruning.
        wd: Optional precomputed W/D matrices.
        system: Optional precomputed constraint system for ``period``
            (the planner shares one system between the min-area
            baseline and LAC, since both retime at the same target).
        tracer: Optional :class:`repro.obs.Tracer`; each weighted
            min-area round becomes a ``lac/round`` span carrying the
            round's ``N_FOA``/``N_F``, weighted-FF objective, per-tile
            violations and weight spread.
        compiled: Optional :class:`repro.compile.CompiledCircuit` of
            this graph; supplies precomputed pruned clocking pairs and
            the incremental solver's gather arrays.

    Raises:
        InfeasiblePeriodError: ``period`` is unachievable (from the
            underlying weighted min-area retiming).
    """
    if tracer is None:
        tracer = NOOP_TRACER
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if system is None:
        if wd is None and compiled is None:
            wd = wd_matrices(graph)
        # Clocking constraints are generated once — the heuristic's key
        # run-time property (Section 4.2).
        system = build_constraint_system(
            graph, wd, period, prune=prune, compiled=compiled
        )

    # The weighted min-area rounds share one warm-started solver: the
    # flow network is built and Bellman–Ford run once, here (an
    # infeasible system surfaces immediately as InfeasiblePeriodError),
    # and each round only updates demands and re-solves from the
    # previous optimum. Rounds are scored from labels; the retimed
    # graph is materialised only once, for the winner.
    solver = IncrementalMinArea(graph, system, compiled=compiled)
    accountant = AreaAccountant(graph, unit_region)

    regions = set(unit_region.values())
    tile_weight: Dict[str, float] = {t: 1.0 for t in regions}
    best: Optional[
        Tuple[int, int, Dict[str, int], AreaReport, Dict[str, float]]
    ] = None
    history: List[Tuple[int, int]] = []
    round_seconds: List[float] = []
    stale = 0
    n_wr = 0

    for _round in range(max_rounds):
        unit_weights = {
            u: tile_weight.get(region, 1.0) for u, region in unit_region.items()
        }
        round_start = time.perf_counter()
        with tracer.span("lac/round", round=_round + 1) as span:
            candidate = solver.solve(unit_weights)
            report = accountant.report(candidate, grid, tech)
            if tracer.enabled:
                # Weighted-FF objective of the round: what the weighted
                # min-area solve actually minimised, in tile-weight
                # units — the convergence quantity of Section 4.2.
                objective = sum(
                    count * tile_weight.get(region, 1.0)
                    for region, count in report.ff_count.items()
                )
                span.set(
                    n_foa=report.n_foa,
                    n_f=report.n_f,
                    objective=objective,
                    violations=dict(report.violations),
                    weight_max=max(tile_weight.values(), default=1.0),
                    engine=solver.stats.engine,
                    warm_start=_round > 0,
                )
        round_seconds.append(time.perf_counter() - round_start)
        n_wr += 1
        tracer.metrics.counter("lac_rounds_total").inc()
        tracer.metrics.gauge("lac_n_foa").set(report.n_foa)
        history.append((report.n_foa, report.n_f))
        log.debug(
            "LAC round %d: N_FOA=%d N_F=%d (%d violating tiles)",
            _round + 1,
            report.n_foa,
            report.n_f,
            len(report.violating_regions()),
        )

        key = (report.n_foa, report.n_f)
        if best is None or key < (best[0], best[1]):
            best = (report.n_foa, report.n_f, candidate, report, dict(tile_weight))
            stale = 0
        else:
            stale += 1
        if report.n_foa == 0 or stale >= n_max:
            break

        ratios = report.consumption_ratio(grid, tech)
        for t in tile_weight:
            if t == IO_REGION:
                continue
            ratio = ratios.get(t, 0.0)
            updated = tile_weight[t] * ((1.0 - alpha) + alpha * ratio)
            tile_weight[t] = min(WEIGHT_MAX, max(WEIGHT_MIN, updated))

    assert best is not None  # loop ran at least once or raised
    _foa, _nf, winner, report, weights = best
    retimed = graph.retimed(winner)
    result = RetimingResult(
        labels=winner,
        graph=retimed,
        period=period,
        total_ffs=retimed.total_flip_flops(),
    )
    return LACResult(
        retiming=result,
        report=report,
        n_wr=n_wr,
        tile_weights=weights,
        history=history,
        round_seconds=round_seconds,
        solver_stats=solver.stats.to_dict(),
    )
