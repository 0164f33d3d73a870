"""Reference repeater DP: every span's delay and penalty per ``(i, j)``.

:func:`repro.repeater.insertion.insert_repeaters` tabulates the two
span-delay formulas once per call and prices a cell's full-tile
penalty once per cell. This oracle re-evaluates both for every
candidate span, as the DP is written on paper, so a table indexed off
by one or a penalty charged at the wrong end shows up as different
segments.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import RoutingError
from repro.repeater.insertion import (
    FULL_TILE_PENALTY,
    BufferedConnection,
    Segment,
)
from repro.tech.params import DEFAULT_TECH, Technology
from repro.tiles.grid import Cell, TileGrid


def insert_repeaters(
    path: Sequence[Cell],
    grid: TileGrid,
    tech: Technology = DEFAULT_TECH,
    driver: str = "u",
    sink: str = "v",
    reserve: bool = True,
) -> BufferedConnection:
    """Buffer one routed path, re-deriving each span's cost."""
    if not path:
        raise RoutingError("cannot buffer an empty path")
    n = len(path)
    if n == 1:
        segment = Segment(path[0], path[0], 0.0, 0.0, driven_by_repeater=False)
        return BufferedConnection(driver, sink, list(path), [segment])

    l_max = tech.l_max_tiles
    size = grid.tile_size

    def repeater_penalty(i: int) -> float:
        region = grid.region_of_cell[path[i]]
        return FULL_TILE_PENALTY if grid.remaining(region) < tech.repeater_area else 0.0

    inf = float("inf")
    dp = [inf] * n
    parent = [-1] * n
    dp[0] = 0.0
    for i in range(1, n):
        lo = max(0, i - l_max)
        for j in range(lo, i):
            if dp[j] == inf:
                continue
            length = (i - j) * size
            if j == 0:
                seg_delay = tech.wire_delay(length, tech.c_repeater)
            else:
                seg_delay = tech.segment_delay(length)
            cost = dp[j] + seg_delay
            if i < n - 1:
                cost += repeater_penalty(i)
            if cost < dp[i]:
                dp[i] = cost
                parent[i] = j
    if dp[n - 1] == inf:  # pragma: no cover - l_max >= 1 precludes this
        raise RoutingError("repeater DP found no cover")

    breakpoints = [n - 1]
    while breakpoints[-1] != 0:
        breakpoints.append(parent[breakpoints[-1]])
    breakpoints.reverse()

    segments: List[Segment] = []
    for a, b in zip(breakpoints, breakpoints[1:]):
        length = (b - a) * size
        driven = a != 0
        delay = (
            tech.segment_delay(length)
            if driven
            else tech.wire_delay(length, tech.c_repeater)
        )
        segments.append(
            Segment(
                start_cell=path[a],
                end_cell=path[b],
                length_mm=length,
                delay_ns=delay,
                driven_by_repeater=driven,
            )
        )
        if driven and reserve:
            grid.reserve(grid.region_of_cell[path[a]], tech.repeater_area)
    return BufferedConnection(driver, sink, list(path), segments)
