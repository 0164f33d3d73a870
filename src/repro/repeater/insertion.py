"""Repeater planning: DP insertion along routed paths under ``L_max``.

Following Alpert et al.'s practical methodology (the paper's reference
[1]), repeaters are inserted along each routed point-to-point global
connection so that no unbuffered interval exceeds ``L_max`` (a signal
integrity constraint) while minimising Elmore delay. A small penalty
steers repeaters away from tiles whose insertion capacity is already
exhausted; chosen repeaters then consume tile capacity.

The resulting segmentation is exactly the paper's *interconnect unit*
decomposition (Section 3.2): segment ``j`` becomes one fixed-delay
unit located at the segment's driving end (the repeater position, or
the driver pin for the first segment).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence, Tuple

from repro.errors import RoutingError
from repro.tech.params import DEFAULT_TECH, Technology
from repro.tiles.grid import Cell, TileGrid

#: Delay penalty (ns) for placing a repeater in a full tile.
FULL_TILE_PENALTY = 0.5


@dataclasses.dataclass(frozen=True)
class Segment:
    """One buffered wire segment of a global connection."""

    start_cell: Cell
    end_cell: Cell
    length_mm: float
    delay_ns: float
    driven_by_repeater: bool


@dataclasses.dataclass
class BufferedConnection:
    """Repeater-planning result for one point-to-point connection."""

    driver: str
    sink: str
    path: List[Cell]
    segments: List[Segment]

    @property
    def n_repeaters(self) -> int:
        return sum(1 for s in self.segments if s.driven_by_repeater)

    @property
    def total_delay(self) -> float:
        return sum(s.delay_ns for s in self.segments)

    @property
    def length_mm(self) -> float:
        return sum(s.length_mm for s in self.segments)


def insert_repeaters(
    path: Sequence[Cell],
    grid: TileGrid,
    tech: Technology = DEFAULT_TECH,
    driver: str = "u",
    sink: str = "v",
    reserve: bool = True,
) -> BufferedConnection:
    """Buffer one routed path.

    Dynamic program over the path's cells: ``dp[i]`` is the best delay
    of covering the path prefix up to cell ``i`` with a
    repeater/endpoint at ``i``, with inter-repeater spans capped at
    ``tech.l_max_tiles``. When ``reserve`` is set, the chosen repeater
    area is consumed from the grid.

    Raises :class:`RoutingError` on an empty path.
    """
    if not path:
        raise RoutingError("cannot buffer an empty path")
    n = len(path)
    if n == 1:
        segment = Segment(path[0], path[0], 0.0, 0.0, driven_by_repeater=False)
        return BufferedConnection(driver, sink, list(path), [segment])

    l_max = tech.l_max_tiles
    size = grid.tile_size
    # Span delays depend only on the span's length in tiles: tabulate
    # them once. first[s] is the driver-pin span, inner[s] a repeater's.
    spans = range(min(l_max, n - 1) + 1)
    first = [tech.wire_delay(s * size, tech.c_repeater) for s in spans]
    inner = [tech.segment_delay(s * size) for s in spans]

    inf = float("inf")
    dp = [inf] * n
    parent = [-1] * n
    dp[0] = 0.0
    for i in range(1, n):
        if i < n - 1:
            region = grid.region_of_cell[path[i]]
            full = grid.remaining(region) < tech.repeater_area
            penalty = FULL_TILE_PENALTY if full else 0.0
        else:
            penalty = 0.0  # the sink end holds no repeater
        for j in range(max(0, i - l_max), i):
            if dp[j] == inf:
                continue
            seg_delay = first[i - j] if j == 0 else inner[i - j]
            cost = dp[j] + seg_delay + penalty
            if cost < dp[i]:
                dp[i] = cost
                parent[i] = j
    if dp[n - 1] == inf:  # pragma: no cover - l_max >= 1 precludes this
        raise RoutingError("repeater DP found no cover")

    # Recover breakpoints (driver, repeaters..., sink).
    breakpoints = [n - 1]
    while breakpoints[-1] != 0:
        breakpoints.append(parent[breakpoints[-1]])
    breakpoints.reverse()

    segments: List[Segment] = []
    for a, b in zip(breakpoints, breakpoints[1:]):
        driven = a != 0
        segments.append(
            Segment(
                start_cell=path[a],
                end_cell=path[b],
                length_mm=(b - a) * size,
                delay_ns=inner[b - a] if driven else first[b - a],
                driven_by_repeater=driven,
            )
        )
        if driven and reserve:
            grid.reserve(grid.region_of_cell[path[a]], tech.repeater_area)
    return BufferedConnection(driver, sink, list(path), segments)


def buffer_routed_nets(
    routed: Dict[str, "RoutedNet"],
    grid: TileGrid,
    tech: Technology = DEFAULT_TECH,
) -> Dict[Tuple[str, str], BufferedConnection]:
    """Buffer every (driver, sink) path of every routed net."""
    out: Dict[Tuple[str, str], BufferedConnection] = {}
    for routed_net in routed.values():
        driver = routed_net.net.driver
        for sink, path in routed_net.paths.items():
            out[(driver, sink)] = insert_repeaters(
                path, grid, tech, driver=driver, sink=sink
            )
    return out
