"""Experiment harnesses: Table 1 regeneration and reporting."""

from repro.experiments.circuits import (
    BY_NAME,
    TABLE1_CIRCUITS,
    TABLE1_SMOKE,
    CircuitSpec,
    get_circuit,
)
from repro.experiments.report import ascii_table, congestion_ascii, tile_graph_ascii
from repro.experiments.table1 import (
    Table1Row,
    average_decrease,
    format_rows,
    run_circuit,
)

__all__ = [
    "CircuitSpec",
    "TABLE1_CIRCUITS",
    "TABLE1_SMOKE",
    "BY_NAME",
    "get_circuit",
    "Table1Row",
    "run_circuit",
    "average_decrease",
    "format_rows",
    "ascii_table",
    "congestion_ascii",
    "tile_graph_ascii",
]
