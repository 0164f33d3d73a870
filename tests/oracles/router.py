"""Reference global routers the shipped :class:`GlobalRouter` must match.

:class:`repro.route.router.GlobalRouter` keeps its flat cost array in
step with ``usage``/``history`` incrementally: it syncs once when
``route()`` starts, then each commit and history bump re-prices only
the cells it changes. :class:`ResyncRouter` rebuilds the whole array
from the public dicts before embedding each net, so any cell the
incremental path forgets to re-price shows up as a different route.

The shipped router also builds each pin list's Steiner topology once
and embeds a net with one multi-goal maze search per tree-edge source.
:class:`SegmentRouter` rebuilds the topology with the reference
:func:`tests.oracles.steiner.steiner_tree` for every embedding and runs
one single-goal Dijkstra per tree edge, so a search that runs past a
goal and changes its path, or a memo that hands back the wrong tree,
shows up as a different route.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Set, Tuple

from repro.errors import RoutingError
from repro.route.router import GlobalRouter, Net, RoutedNet
from repro.tiles.grid import Cell
from tests.oracles.steiner import steiner_tree


class ResyncRouter(GlobalRouter):
    """:class:`GlobalRouter` with a full cost re-sync before every net."""

    def _embed_net(self, net: Net, synced: bool = False) -> RoutedNet:
        self._sync_costs()
        return super()._embed_net(net, synced=True)


class SegmentRouter(GlobalRouter):
    """One Steiner build per embedding, one Dijkstra per tree edge."""

    def _embed_net(self, net: Net, synced: bool = False) -> RoutedNet:
        if not synced:
            self._sync_costs()
        pins = [net.driver_cell] + [net.sink_cells[s] for s in net.sinks]
        topology = steiner_tree(pins)
        cells: Set[Cell] = set(pins)
        segment_paths: Dict[Tuple[Cell, Cell], List[Cell]] = {}
        for a, b in topology:
            path = self._maze_route_fast(a, b)
            segment_paths[(a, b)] = path
            cells.update(path)
        return self._routed(net, topology, cells, segment_paths)

    def _maze_route_fast(self, start: Cell, goal: Cell) -> List[Cell]:
        """Dijkstra from start to goal, stopping at the goal."""
        if start == goal:
            return [start]
        n_rows = self._n_rows
        sid = start[0] * n_rows + start[1]
        gid = goal[0] * n_rows + goal[1]
        cost = self._cost
        inf = float("inf")
        dist = [inf] * len(cost)
        prev = [-1] * len(cost)
        seen = [False] * len(cost)
        dist[sid] = 0.0
        heap = [(0.0, sid)]
        while heap:
            d, cid = heapq.heappop(heap)
            if seen[cid]:
                continue
            if cid == gid:
                break
            seen[cid] = True
            for nid in self._nbrs[cid]:
                nd = d + cost[nid]
                if nd < dist[nid]:
                    dist[nid] = nd
                    prev[nid] = cid
                    heapq.heappush(heap, (nd, nid))
        if dist[gid] == inf:
            raise RoutingError(f"no route {start} -> {goal}")
        path_ids = [gid]
        while path_ids[-1] != sid:
            path_ids.append(prev[path_ids[-1]])
        return [(cid // n_rows, cid % n_rows) for cid in reversed(path_ids)]
