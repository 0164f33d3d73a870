"""Reference LAC-retiming: one cold weighted min-area solve per round.

:func:`repro.core.lac.lac_retiming` keeps one warm-started
:class:`~repro.retime.incremental.IncrementalMinArea` across rounds and
scores rounds from labels. This oracle runs the paper's loop
(Section 4.2) literally: every round is a full
:func:`~repro.retime.minarea.min_area_retiming` (network simplex) on the
shared constraint system, scored on the materialised retimed graph.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.lac import WEIGHT_MAX, WEIGHT_MIN
from repro.core.metrics import AreaReport, area_report
from repro.netlist.graph import CircuitGraph
from repro.retime.constraints import build_constraint_system
from repro.retime.expand import IO_REGION
from repro.retime.minarea import RetimingResult, min_area_retiming
from repro.retime.wd import wd_matrices
from repro.tech.params import Technology
from repro.tiles.grid import TileGrid


def lac_retiming_cold(
    graph: CircuitGraph,
    unit_region: Mapping[str, str],
    grid: TileGrid,
    period: float,
    tech: Technology,
    alpha: float = 0.2,
    n_max: int = 5,
    max_rounds: int = 30,
    prune: bool = True,
) -> Tuple[RetimingResult, AreaReport, List[Tuple[int, int]]]:
    """Best ``(retiming, report)`` by ``(N_FOA, N_F)``, plus the history."""
    system = build_constraint_system(graph, wd_matrices(graph), period, prune=prune)
    tile_weight: Dict[str, float] = {t: 1.0 for t in set(unit_region.values())}
    best: Optional[Tuple[Tuple[int, int], RetimingResult, AreaReport]] = None
    history: List[Tuple[int, int]] = []
    stale = 0
    for _round in range(max_rounds):
        weights = {u: tile_weight.get(t, 1.0) for u, t in unit_region.items()}
        result = min_area_retiming(graph, period, weights=weights, system=system)
        report = area_report(result.graph, unit_region, grid, tech)
        key = (report.n_foa, report.n_f)
        history.append(key)
        if best is None or key < best[0]:
            best, stale = (key, result, report), 0
        else:
            stale += 1
        if report.n_foa == 0 or stale >= n_max:
            break
        ratios = report.consumption_ratio(grid, tech)
        for t in tile_weight:
            if t != IO_REGION:
                updated = tile_weight[t] * ((1.0 - alpha) + alpha * ratios.get(t, 0.0))
                tile_weight[t] = min(WEIGHT_MAX, max(WEIGHT_MIN, updated))
    assert best is not None
    return best[1], best[2], history
