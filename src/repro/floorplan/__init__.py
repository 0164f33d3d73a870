"""Sequence-pair floorplanning of circuit blocks."""

from repro.floorplan.annealer import SequencePairAnnealer
from repro.floorplan.blocks import Block, Placement
from repro.floorplan.plan import (
    Floorplan,
    blocks_from_partition,
    build_floorplan,
    expand_floorplan,
    net_pairs_from_graph,
)
from repro.floorplan.sequence_pair import ArrayPacker, overlaps, pack, pack_arrays

__all__ = [
    "Block",
    "Placement",
    "pack",
    "pack_arrays",
    "ArrayPacker",
    "overlaps",
    "SequencePairAnnealer",
    "Floorplan",
    "blocks_from_partition",
    "net_pairs_from_graph",
    "build_floorplan",
    "expand_floorplan",
]
