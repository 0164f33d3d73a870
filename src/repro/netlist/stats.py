"""Circuit statistics: the numbers a planner wants before planning.

``circuit_stats`` summarises a retiming graph — size, register
distribution, combinational depth, fanout shape — and renders a short
text panel. Useful for sizing planner knobs (block count, whitespace)
and for the examples' output.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from repro.netlist.graph import CircuitGraph


@dataclasses.dataclass
class CircuitStats:
    """Summary statistics of one circuit."""

    name: str
    n_units: int  # excluding hosts
    n_connections: int
    n_flip_flops: int
    n_inputs: int
    n_outputs: int
    total_delay: float
    total_area: float
    max_arrival: float  # longest register-free path delay
    max_fanout: int
    fanout_histogram: Dict[int, int]
    register_histogram: Dict[int, int]  # edge weight -> count (w > 0)

    def format(self) -> str:
        lines = [
            f"circuit {self.name}: {self.n_units} units, "
            f"{self.n_connections} connections, {self.n_flip_flops} flip-flops",
            f"  I/O           : {self.n_inputs} inputs, {self.n_outputs} outputs",
            f"  total delay   : {self.total_delay:.1f} ns "
            f"(longest register-free path {self.max_arrival:.2f} ns)",
            f"  total area    : {self.total_area:.0f} mm^2",
            f"  max fanout    : {self.max_fanout}",
        ]
        if self.register_histogram:
            regs = ", ".join(
                f"{w}x{c}" for w, c in sorted(self.register_histogram.items())
            )
            lines.append(f"  registers/edge: {regs}")
        return "\n".join(lines)


def circuit_stats(graph: CircuitGraph) -> CircuitStats:
    """Compute :class:`CircuitStats` for ``graph``."""
    hosts = set(graph.host_units())
    units = [u for u in graph.units() if u not in hosts]
    fanout_hist: Dict[int, int] = {}
    max_fanout = 0
    for u in units:
        deg = graph.out_degree(u)
        fanout_hist[deg] = fanout_hist.get(deg, 0) + 1
        max_fanout = max(max_fanout, deg)
    register_hist: Dict[int, int] = {}
    for _cid, w in graph.connections():
        if w > 0:
            register_hist[w] = register_hist.get(w, 0) + 1
    # Function-level import: repro.verify imports the netlist package.
    from repro.verify.timing import unit_arrivals

    arrivals = unit_arrivals(graph)
    n_inputs = sum(len(graph.fanout(h)) for h in hosts if not graph.fanin(h))
    n_outputs = sum(len(graph.fanin(h)) for h in hosts if not graph.fanout(h))
    return CircuitStats(
        name=graph.name,
        n_units=len(units),
        n_connections=graph.num_connections,
        n_flip_flops=graph.total_flip_flops(),
        n_inputs=n_inputs,
        n_outputs=n_outputs,
        total_delay=graph.total_delay(),
        total_area=sum(graph.area(u) for u in units),
        max_arrival=max(arrivals.values()) if arrivals else 0.0,
        max_fanout=max_fanout,
        fanout_histogram=fanout_hist,
        register_histogram=register_hist,
    )
