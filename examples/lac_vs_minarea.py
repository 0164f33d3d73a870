"""Minimal illustration of why LAC-retiming exists.

Builds a 4-unit ring with four flip-flops and a floorplan in which one
tile has *zero* insertion capacity. Classic min-area retiming is
indifferent between the many 4-flip-flop optima and may happily charge
a flip-flop to the full tile; LAC-retiming reweights the full tile and
steers every flip-flop into roomy tiles — same flip-flop count, zero
violations.

Usage::

    python examples/lac_vs_minarea.py
"""

from repro.compile import CompiledCircuit
from repro.core import area_report, lac_retiming
from repro.netlist import CircuitGraph
from repro.retime import min_area_retiming
from repro.tech import Technology
from repro.tiles.grid import SOFT, TileGrid

TECH = Technology(ff_area=1.0)


def build_ring():
    g = CircuitGraph("ring")
    for i in range(4):
        g.add_unit(f"u{i}", delay=1.0)
    for i in range(4):
        g.add_connection(f"u{i}", f"u{(i + 1) % 4}", weight=1)
    unit_region = {f"u{i}": f"t{i}" for i in range(4)}
    capacities = {"t0": 0.0, "t1": 4.0, "t2": 4.0, "t3": 4.0}
    grid = TileGrid(
        n_cols=4,
        n_rows=1,
        tile_size=1.0,
        region_of_cell={(i, 0): f"t{i}" for i in range(4)},
        kind={t: SOFT for t in capacities},
        capacity=capacities,
        used={t: 0.0 for t in capacities},
        block_region={},
    )
    return g, unit_region, grid


def show(tag, report):
    print(f"{tag}: N_F={report.n_f}  N_FOA={report.n_foa}  "
          f"per-tile={dict(sorted(report.ff_count.items()))}")


def main() -> None:
    g, unit_region, grid = build_ring()
    period = 10.0

    # Both retimings read one compiled artifact of the ring.
    compiled = CompiledCircuit.compile(g)
    base = min_area_retiming(g, period, compiled=compiled)
    show("min-area", area_report(base.graph, unit_region, grid, TECH))

    lac = lac_retiming(g, unit_region, grid, period, tech=TECH, compiled=compiled)
    show("LAC     ", lac.report)
    print(f"\nLAC used {lac.n_wr} weighted min-area solves; final tile "
          f"weights: { {t: round(w, 3) for t, w in sorted(lac.tile_weights.items())} }")


if __name__ == "__main__":
    main()
