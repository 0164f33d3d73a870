"""Congestion-aware tile-graph global router with rip-up & re-route.

For each inter-block net a Steiner topology is built over the pin
cells; every tree edge is then embedded into the tile lattice by a
Dijkstra maze router whose arc cost grows with tile congestion
(PathFinder-style present + history costs). A small number of rip-up &
re-route passes moves wires out of overfull tiles, matching the paper's
"rip-up and re-routing to reduce routing congestion".
"""

from __future__ import annotations

import dataclasses
import heapq
import logging
import random
import zlib
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import RoutingError
from repro.floorplan.plan import Floorplan
from repro.netlist.graph import CircuitGraph
from repro.obs import NOOP_TRACER
from repro.route.steiner import Edge, steiner_tree, tree_paths
from repro.tiles.grid import CHANNEL, HARD, SOFT, Cell, TileGrid

log = logging.getLogger(__name__)

#: Routing track capacity of one lattice cell, by region kind.
TRACKS = {CHANNEL: 12, SOFT: 6, HARD: 3}


@dataclasses.dataclass
class Net:
    """A multi-terminal global net: one driver unit, >= 1 sink units."""

    name: str
    driver: str
    sinks: List[str]
    driver_cell: Cell
    sink_cells: Dict[str, Cell]


@dataclasses.dataclass
class RoutedNet:
    """Routing result for one net."""

    net: Net
    cells: Set[Cell]
    paths: Dict[str, List[Cell]]  # sink unit -> cell path (driver first)

    @property
    def wirelength_tiles(self) -> int:
        return max(0, len(self.cells) - 1)


def pin_cell(grid: TileGrid, plan: Floorplan, unit: str, jitter_seed: int = 0) -> Cell:
    """Deterministic pin position for a unit inside its block.

    Units are not placed yet (this is *early* planning); we spread them
    pseudo-randomly inside their block so routing and tile accounting
    see a realistic pin distribution. Units without a block (e.g. the
    hosts) sit at the chip boundary.
    """
    placement = plan.placement_of_unit(unit)
    # zlib.crc32, not hash(): string hashing is randomised per process
    # and pin positions must be reproducible across runs.
    rng = random.Random(zlib.crc32(f"{unit}|{jitter_seed}".encode()))
    if placement is None:
        # Host / unplaced: park on the left chip edge, spread vertically.
        y = rng.uniform(0.0, grid.n_rows * grid.tile_size)
        return grid.cell_of_point(0.0, y)
    x = placement.x + rng.uniform(0.15, 0.85) * placement.width
    y = placement.y + rng.uniform(0.15, 0.85) * placement.height
    return grid.cell_of_point(x, y)


def nets_from_graph(
    graph: CircuitGraph,
    grid: TileGrid,
    plan: Floorplan,
    include_intra_block: bool = False,
    jitter_seed: int = 0,
) -> List[Net]:
    """Group connections into per-driver nets needing global routing.

    By default only *inter-block* connections are returned — those are
    the global interconnects the paper plans; intra-block wiring is
    left to later physical design.
    """
    cells: Dict[str, Cell] = {}

    def cell_of(unit: str) -> Cell:
        if unit not in cells:
            cells[unit] = pin_cell(grid, plan, unit, jitter_seed)
        return cells[unit]

    hosts = set(graph.host_units())
    sinks_of: Dict[str, List[str]] = {}
    for (u, v, _k), _w in graph.connections():
        if u in hosts or v in hosts:
            continue  # I/O pad wiring is outside the planner's scope
        bu = plan.block_of_unit.get(u)
        bv = plan.block_of_unit.get(v)
        crosses = bu != bv
        if crosses or include_intra_block:
            sinks_of.setdefault(u, []).append(v)

    nets = []
    for driver, sinks in sorted(sinks_of.items()):
        unique_sinks = sorted(set(sinks))
        nets.append(
            Net(
                name=f"n_{driver}",
                driver=driver,
                sinks=unique_sinks,
                driver_cell=cell_of(driver),
                sink_cells={s: cell_of(s) for s in unique_sinks},
            )
        )
    return nets


class GlobalRouter:
    """PathFinder-lite router over a :class:`TileGrid`.

    Hot-loop state is flat: cells are numbered ``col * n_rows + row``
    (which sorts exactly like the ``(col, row)`` tuples, so heap
    tie-breaks — and therefore routes — are identical to the historical
    tuple-keyed Dijkstra), the lattice adjacency is prebuilt once, and
    per-cell arc costs live in a flat list that commits and history
    bumps update in place, re-pricing only the cells they change. The
    ``usage``/``history`` dicts remain the public source of truth;
    public entry points re-sync the cost array from them once on entry,
    so callers may mutate the dicts directly between calls.
    ``cost_refreshes`` counts the cells re-priced so far.

    Each ordered pin list's Steiner topology is built once per router
    (``steiner_tree`` is a pure function of it, so rip-up & re-route
    reuses the first build), and each net runs one maze search per
    distinct tree-edge source. ``topology_builds`` and
    ``maze_searches`` count both so far.
    """

    def __init__(self, grid: TileGrid, history_weight: float = 0.5):
        self.grid = grid
        self.history_weight = history_weight
        self.usage: Dict[Cell, int] = {}
        self.history: Dict[Cell, float] = {}
        self._n_rows = grid.n_rows
        n = grid.n_cols * grid.n_rows
        self._cap: List[int] = [0] * n
        self._nbrs: List[List[int]] = [[] for _ in range(n)]
        for c in range(grid.n_cols):
            for r in range(grid.n_rows):
                cid = c * grid.n_rows + r
                self._cap[cid] = self.track_capacity((c, r))
                nbrs = self._nbrs[cid]
                # Same order as TileGrid.neighbours.
                if c > 0:
                    nbrs.append(cid - grid.n_rows)
                if c + 1 < grid.n_cols:
                    nbrs.append(cid + grid.n_rows)
                if r > 0:
                    nbrs.append(cid - 1)
                if r + 1 < grid.n_rows:
                    nbrs.append(cid + 1)
        # Cost of an untouched cell: usage 0, history 0.
        self._base: List[float] = [
            1.0 + max(0.0, (1 - cap)) * 2.0 + self.history_weight * 0.0
            for cap in self._cap
        ]
        self._cost: List[float] = list(self._base)
        self.cost_refreshes = 0
        self._topologies: Dict[Tuple[Cell, ...], List[Edge]] = {}
        self.topology_builds = 0
        self.maze_searches = 0

    # ------------------------------------------------------------------
    def track_capacity(self, cell: Cell) -> int:
        region = self.grid.region_of_cell[cell]
        return TRACKS[self.grid.kind[region]]

    def _cell_cost(self, cell: Cell) -> float:
        use = self.usage.get(cell, 0)
        cap = self._cap[cell[0] * self._n_rows + cell[1]]
        present = 1.0 + max(0.0, (use + 1 - cap)) * 2.0
        return present + self.history_weight * self.history.get(cell, 0.0)

    def _refresh_cell(self, cell: Cell) -> None:
        """Re-derive one cell's arc cost after a usage/history change."""
        self._cost[cell[0] * self._n_rows + cell[1]] = self._cell_cost(cell)
        self.cost_refreshes += 1

    def _sync_costs(self) -> None:
        """Rebuild the flat cost array from the public dicts."""
        self._cost = list(self._base)
        for cell in self.usage:
            self._refresh_cell(cell)
        for cell in self.history:
            if cell not in self.usage:
                self._refresh_cell(cell)

    def _maze_route(self, start: Cell, goal: Cell) -> List[Cell]:
        """Dijkstra from start to goal over the lattice."""
        self._sync_costs()
        path = self._maze_search(start, [goal])[goal]
        if path is None:
            raise RoutingError(f"no route {start} -> {goal}")
        return path

    def _maze_search(
        self, start: Cell, goals: Sequence[Cell]
    ) -> Dict[Cell, Optional[List[Cell]]]:
        """One Dijkstra from ``start`` until every goal is settled.

        Costs must be in sync. Arc costs are positive, so a settled
        cell's ``prev`` never changes: searching on past one goal keeps
        its path exactly what a search stopping there would return.
        Unreachable goals map to ``None``.
        """
        n_rows = self._n_rows
        sid = start[0] * n_rows + start[1]
        pending = {g[0] * n_rows + g[1] for g in goals}
        pending.discard(sid)
        if not pending:
            return {goal: [start] for goal in goals}
        self.maze_searches += 1
        cost = self._cost
        nbrs = self._nbrs
        inf = float("inf")
        dist = [inf] * len(cost)
        prev = [-1] * len(cost)
        seen = [False] * len(cost)
        dist[sid] = 0.0
        heap = [(0.0, sid)]
        push = heapq.heappush
        pop = heapq.heappop
        while heap:
            d, cid = pop(heap)
            if seen[cid]:
                continue
            if cid in pending:
                pending.remove(cid)
                if not pending:
                    break
            seen[cid] = True
            for nid in nbrs[cid]:
                nd = d + cost[nid]
                if nd < dist[nid]:
                    dist[nid] = nd
                    prev[nid] = cid
                    push(heap, (nd, nid))
        paths: Dict[Cell, Optional[List[Cell]]] = {}
        for goal in goals:
            gid = goal[0] * n_rows + goal[1]
            if dist[gid] == inf:
                paths[goal] = None
                continue
            path_ids = [gid]
            while path_ids[-1] != sid:
                path_ids.append(prev[path_ids[-1]])
            paths[goal] = [
                (cid // n_rows, cid % n_rows) for cid in reversed(path_ids)
            ]
        return paths

    # ------------------------------------------------------------------
    def _embed_net(self, net: Net, synced: bool = False) -> RoutedNet:
        if not synced:
            self._sync_costs()
        pins = (net.driver_cell, *(net.sink_cells[s] for s in net.sinks))
        topology = self._topologies.get(pins)
        if topology is None:
            topology = self._topologies[pins] = steiner_tree(pins)
            self.topology_builds += 1
        goals: Dict[Cell, List[Cell]] = {}
        for a, b in topology:
            goals.setdefault(a, []).append(b)
        found = {a: self._maze_search(a, bs) for a, bs in goals.items()}
        # Filled in topology-edge order, so the set (and with it the
        # usage dict's insertion order) is the same as edge by edge.
        cells: Set[Cell] = set(pins)
        segment_paths: Dict[Tuple[Cell, Cell], List[Cell]] = {}
        for a, b in topology:
            path = found[a][b]
            if path is None:
                raise RoutingError(f"no route {a} -> {b}")
            segment_paths[(a, b)] = path
            cells.update(path)
        return self._routed(net, topology, cells, segment_paths)

    def _routed(
        self,
        net: Net,
        topology: List[Edge],
        cells: Set[Cell],
        segment_paths: Dict[Tuple[Cell, Cell], List[Cell]],
    ) -> RoutedNet:
        """Assemble a :class:`RoutedNet` from its embedded tree edges."""
        # Per-sink cell path: walk the topology, concatenating embedded
        # segments (reversing when traversing a tree edge backwards).
        point_paths = tree_paths(
            topology, net.driver_cell, list(net.sink_cells.values())
        )
        paths: Dict[str, List[Cell]] = {}
        for sink, pin in net.sink_cells.items():
            pts = point_paths.get(pin)
            if pts is None:
                paths[sink] = [net.driver_cell, pin]
                continue
            cell_path: List[Cell] = [net.driver_cell]
            for a, b in zip(pts, pts[1:]):
                seg = segment_paths.get((a, b))
                if seg is None:
                    seg = list(reversed(segment_paths[(b, a)]))
                cell_path.extend(seg[1:])
            paths[sink] = cell_path
        return RoutedNet(net=net, cells=cells, paths=paths)

    def _commit(self, routed: RoutedNet, sign: int) -> None:
        for cell in routed.cells:
            self.usage[cell] = self.usage.get(cell, 0) + sign
            self._refresh_cell(cell)

    def overflowed_cells(self) -> List[Cell]:
        return [
            c for c, use in self.usage.items() if use > self.track_capacity(c)
        ]

    def route(
        self, nets: Sequence[Net], rrr_passes: int = 2, tracer=None
    ) -> Dict[str, RoutedNet]:
        """Route all nets, then rip-up & re-route congested ones.

        ``tracer`` records the run as a ``route/global`` span: net and
        wirelength totals, the congestion summary, and one ``rrr_pass``
        event per rip-up & re-route pass (hot cells, ripped nets).
        """
        if tracer is None:
            tracer = NOOP_TRACER
        refreshes = self.cost_refreshes
        builds, searches = self.topology_builds, self.maze_searches
        with tracer.span("route/global", nets=len(nets)) as span:
            # From here on every change to usage/history re-prices the
            # cells it touches, so the costs stay in sync net to net.
            self._sync_costs()
            routed: Dict[str, RoutedNet] = {}
            for net in nets:
                result = self._embed_net(net, synced=True)
                self._commit(result, +1)
                routed[net.name] = result

            for rrr in range(1, rrr_passes + 1):
                hot = set(self.overflowed_cells())
                if not hot:
                    break
                for cell in hot:
                    self.history[cell] = self.history.get(cell, 0.0) + 1.0
                    self._refresh_cell(cell)
                victims = [
                    name for name, r in routed.items() if r.cells & hot
                ]
                span.event(
                    "rrr_pass",
                    index=rrr,
                    hot_cells=len(hot),
                    ripped_nets=len(victims),
                )
                log.debug(
                    "rip-up & re-route pass %d: %d hot cells, %d nets",
                    rrr,
                    len(hot),
                    len(victims),
                )
                for name in victims:
                    self._commit(routed[name], -1)
                    result = self._embed_net(routed[name].net, synced=True)
                    self._commit(result, +1)
                    routed[name] = result
            summary = self.congestion_summary()
            span.set(
                wirelength_tiles=sum(
                    r.wirelength_tiles for r in routed.values()
                ),
                cost_refreshes=self.cost_refreshes - refreshes,
                topologies=self.topology_builds - builds,
                searches=self.maze_searches - searches,
                **summary,
            )
        return routed

    def congestion_summary(self) -> Dict[str, float]:
        over = self.overflowed_cells()
        return {
            "used_cells": float(len(self.usage)),
            "overflowed_cells": float(len(over)),
            "max_usage": float(max(self.usage.values(), default=0)),
        }
