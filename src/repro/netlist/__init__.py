"""Netlist substrate: retiming graphs, ISCAS89 I/O, synthetic circuits."""

from repro.netlist.bench import (
    BenchNetlist,
    bench_to_graph,
    load_bench,
    parse_bench_text,
    save_bench,
    write_bench_text,
)
from repro.netlist.generate import random_circuit
from repro.netlist.io import graph_from_dict, graph_to_dict, load_graph, save_graph
from repro.netlist.generate import random_bench_netlist
from repro.netlist.graph import (
    HOST_SNK,
    HOST_SRC,
    HOST_KIND,
    INTERCONNECT,
    LOGIC,
    CircuitGraph,
    relabeled,
)
from repro.netlist.retime_bench import register_count, retime_bench
from repro.netlist.s27 import S27_BENCH, s27_graph
from repro.netlist.sim import (
    LogicSimulator,
    equivalent_streams,
    random_input_stream,
)
from repro.netlist.stats import CircuitStats, circuit_stats

__all__ = [
    "CircuitGraph",
    "relabeled",
    "HOST_SRC",
    "HOST_SNK",
    "HOST_KIND",
    "LOGIC",
    "INTERCONNECT",
    "BenchNetlist",
    "parse_bench_text",
    "bench_to_graph",
    "load_bench",
    "write_bench_text",
    "save_bench",
    "random_circuit",
    "random_bench_netlist",
    "graph_to_dict",
    "graph_from_dict",
    "save_graph",
    "load_graph",
    "s27_graph",
    "LogicSimulator",
    "random_input_stream",
    "equivalent_streams",
    "retime_bench",
    "register_count",
    "CircuitStats",
    "circuit_stats",
    "S27_BENCH",
]
