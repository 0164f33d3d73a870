"""Recursive multiway partitioning of a netlist into circuit blocks.

Applies :class:`~repro.partition.fm.FMBipartitioner` recursively until
the requested number of blocks is reached, splitting the largest-area
group at each step so block areas stay comparable. Host vertices are
never assigned to a block (they live at the chip boundary).
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import Dict, List, Set

from repro.errors import NetlistError
from repro.netlist.graph import CircuitGraph
from repro.partition.fm import FMBipartitioner


@dataclasses.dataclass
class Partition:
    """Assignment of functional units to circuit blocks."""

    assignment: Dict[str, int]  # unit -> block index
    n_blocks: int

    def units_of(self, block: int) -> List[str]:
        return [u for u, b in self.assignment.items() if b == block]

    def block_area(self, graph: CircuitGraph, block: int) -> float:
        return sum(graph.area(u) for u in self.units_of(block))

    def cut_connections(self, graph: CircuitGraph) -> int:
        """Number of inter-block connections (global interconnects)."""
        cut = 0
        for (u, v, _k), _w in graph.connections():
            bu = self.assignment.get(u)
            bv = self.assignment.get(v)
            if bu is not None and bv is not None and bu != bv:
                cut += 1
        return cut


def _nets_from_graph(graph: CircuitGraph, units: Set[str]) -> List[Set[str]]:
    """Model each multi-fanout unit's output as one net, in unit-name
    order so the nets do not depend on the string hash seed."""
    nets: List[Set[str]] = []
    for u in sorted(units):
        sinks = {v for v in graph.fanout(u) if v in units}
        if sinks:
            nets.append({u} | sinks)
    return nets


def partition_graph(
    graph: CircuitGraph,
    n_blocks: int,
    seed: int = 0,
    balance: float = 0.65,
    passes: int = 6,
    tracer=None,
) -> Partition:
    """Partition the non-host units of ``graph`` into ``n_blocks`` blocks.

    Each recursive FM bipartition records a ``partition/fm`` span on
    ``tracer`` (cut trajectory per pass); see
    :meth:`repro.partition.fm.FMBipartitioner.run`.

    Raises :class:`NetlistError` if there are fewer units than blocks.
    """
    hosts = set(graph.host_units())
    units = [u for u in graph.units() if u not in hosts]
    if len(units) < n_blocks:
        raise NetlistError(
            f"cannot split {len(units)} units into {n_blocks} blocks"
        )
    rng = random.Random(seed)
    areas = {u: max(graph.area(u), 1e-9) for u in units}

    groups: List[Set[str]] = [set(units)]
    while len(groups) < n_blocks:
        # Split the group with the largest area.
        idx = max(
            range(len(groups)), key=lambda i: sum(areas[u] for u in groups[i])
        )
        group = groups.pop(idx)
        if len(group) < 2:
            groups.append(group)
            break
        nets = _nets_from_graph(graph, group)
        fm = FMBipartitioner(
            sorted(group), areas, nets, balance=balance, rng=rng
        )
        side = fm.run(passes=passes, tracer=tracer)
        g0 = {u for u in group if side[u] == 0}
        g1 = group - g0
        if not g0 or not g1:
            # Degenerate split; fall back to an area-balanced cut.
            ordered = sorted(group, key=lambda u: -areas[u])
            g0, g1 = set(ordered[0::2]), set(ordered[1::2])
        groups.extend([g0, g1])

    assignment = {}
    for b, group in enumerate(groups):
        for u in group:
            assignment[u] = b
    return Partition(assignment=assignment, n_blocks=len(groups))


def default_block_count(n_units: int) -> int:
    """Heuristic block count used by the planner: ~sqrt(n)/2, in [4, 24]."""
    return int(min(24, max(4, round(math.sqrt(n_units) / 2.0))))
