"""Repeater planning under the maximum-interval constraint."""

from repro.repeater.insertion import (
    BufferedConnection,
    Segment,
    buffer_routed_nets,
    insert_repeaters,
)

__all__ = [
    "Segment",
    "BufferedConnection",
    "insert_repeaters",
    "buffer_routed_nets",
]
