"""Load an ISCAS89 ``.bench`` netlist and retime it.

Demonstrates the netlist substrate on its own: parse a ``.bench`` file
(a real one if you pass a path, otherwise the embedded s27), report its
structure, and run plain min-period + min-area retiming without any
physical planning.

Usage::

    python examples/bench_io.py [path/to/circuit.bench]
"""

import sys

from repro.compile import CompiledCircuit
from repro.netlist import S27_BENCH, bench_to_graph, load_bench, parse_bench_text
from repro.retime import min_area_retiming, min_period_retiming


def main(argv) -> int:
    if len(argv) > 1:
        graph = load_bench(argv[1])
    else:
        print("no file given; using the embedded s27 netlist\n")
        graph = bench_to_graph(parse_bench_text(S27_BENCH, name="s27"))

    print(f"circuit : {graph.name}")
    print(f"units   : {graph.num_units} (incl. hosts)")
    print(f"edges   : {graph.num_connections}")
    print(f"FFs     : {graph.total_flip_flops()}")

    # One compile (W/D, candidate periods, FEAS arrays) serves both
    # retimings; each would compile its own without it.
    compiled = CompiledCircuit.compile(graph)
    t_init = compiled.t_init
    t_min, _ = min_period_retiming(graph, compiled=compiled)
    print(f"\nT_init  : {t_init:.2f} ns  (as written)")
    print(f"T_min   : {t_min:.2f} ns  (best achievable by retiming)")

    result = min_area_retiming(graph, period=t_init, compiled=compiled)
    print(
        f"\nmin-area retiming at T={t_init:.2f}: "
        f"{graph.total_flip_flops()} -> {result.total_ffs} flip-flops, "
        f"{result.moved_units} units relabelled"
    )
    moved = {u: r for u, r in result.labels.items() if r != 0}
    if moved:
        print(f"labels  : {moved}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
