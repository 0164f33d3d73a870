"""Area-constraint accounting: AC(t), N_FOA, N_F, N_FN.

These are the quantities Table 1 of the paper reports:

* ``N_F`` — total number of flip-flops after retiming;
* ``N_FN`` — flip-flops that ended up *inside interconnects* (edges
  whose fanin is an interconnect unit);
* ``AC(t)`` — flip-flop area consumed in tile/region ``t`` (flip-flops
  are charged to the region of the edge's fanin unit, Eqn. (3));
* ``N_FOA`` — total count of flip-flops exceeding their region's
  remaining capacity (after repeater insertion).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Mapping

import numpy as np

from repro.netlist.graph import INTERCONNECT, CircuitGraph
from repro.retime.expand import IO_REGION
from repro.tech.params import DEFAULT_TECH, Technology
from repro.tiles.grid import TileGrid


@dataclasses.dataclass
class AreaReport:
    """Per-region flip-flop accounting for one retimed circuit."""

    ff_count: Dict[str, int]
    violations: Dict[str, int]
    n_foa: int
    n_f: int
    n_fn: int

    def violating_regions(self):
        return [t for t, v in self.violations.items() if v > 0]

    def consumption_ratio(self, grid: TileGrid, tech: Technology) -> Dict[str, float]:
        """``AC(t) / C(t)`` per region, the paper's reweighting signal.

        Regions with no remaining capacity but non-zero consumption get
        a large finite ratio so reweighting still pushes away from
        them.
        """
        ratios: Dict[str, float] = {}
        for region, count in self.ff_count.items():
            if region == IO_REGION:
                continue
            consumption = count * tech.ff_area
            cap = grid.remaining(region)
            if cap <= 1e-9:
                ratios[region] = 10.0 if consumption > 0 else 0.0
            else:
                ratios[region] = consumption / cap
        return ratios


class AreaAccountant:
    """Computes :class:`AreaReport` directly from retiming labels.

    Materialising ``graph.retimed(labels)`` just to count flip-flops
    would copy every weight; LAC scores labels once per reweighting
    round. This accountant snapshots the per-connection structure
    (fanin index, weight, fanin region, interconnect flag) once, from
    the graph's array view, then scores any label vector with a few
    vectorised passes: ``w_r(e) = w(e) + r(v) - r(u)``. The regions
    of a report are in order of their first connection.

    For any labels that yield non-negative retimed weights,
    ``accountant.report(labels, grid, tech)`` equals
    ``area_report(graph.retimed(labels), unit_region, grid, tech)``.
    """

    def __init__(self, graph: CircuitGraph, unit_region: Mapping[str, str]):
        view = graph.arrays()
        self._order = view.order
        self._conn_u, self._conn_v, self._w = view.u, view.v, view.w
        # A connection is charged to its fanin unit's region.
        region_of = [unit_region.get(u, IO_REGION) for u in view.order]
        ids: Dict[str, int] = {}
        self._region_id = np.fromiter(
            (ids.setdefault(region_of[i], len(ids)) for i in view.u.tolist()),
            dtype=np.int64,
            count=view.u.size,
        )
        self._regions = list(ids)
        interconnect = np.array([graph.kind(u) == INTERCONNECT for u in view.order], dtype=bool)
        self._interconnect = interconnect[view.u]

    def report(
        self,
        labels: Mapping[str, int],
        grid: TileGrid,
        tech: Technology = DEFAULT_TECH,
    ) -> AreaReport:
        """Score ``labels`` against the grid without retiming the graph."""
        n = len(self._order)
        r = np.fromiter(
            (labels.get(u, 0) for u in self._order), dtype=np.int64, count=n
        )
        wr = self._w + r[self._conn_v] - r[self._conn_u]
        n_f = int(wr.sum())
        n_fn = int(wr[self._interconnect].sum())
        counts = np.bincount(
            self._region_id, weights=wr, minlength=len(self._regions)
        ).astype(np.int64)
        ff_count = {
            self._regions[k]: int(c) for k, c in enumerate(counts) if c > 0
        }
        violations: Dict[str, int] = {}
        n_foa = 0
        for region, count in ff_count.items():
            if region == IO_REGION:
                continue
            fits = int(max(0.0, grid.remaining(region)) // tech.ff_area)
            over = max(0, count - fits)
            if over:
                violations[region] = over
                n_foa += over
        return AreaReport(
            ff_count=ff_count,
            violations=violations,
            n_foa=n_foa,
            n_f=n_f,
            n_fn=n_fn,
        )


def area_report(
    graph: CircuitGraph,
    unit_region: Mapping[str, str],
    grid: TileGrid,
    tech: Technology = DEFAULT_TECH,
) -> AreaReport:
    """Account the flip-flops of (possibly retimed) ``graph`` to regions.

    Capacity per region is what remains after repeater insertion
    (``grid.used`` holds the repeater area), matching the paper's
    "remaining capacity after repeater insertion".
    """
    return AreaAccountant(graph, unit_region).report({}, grid, tech)
