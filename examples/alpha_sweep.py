"""Sweep the LAC reweighting coefficient alpha on one circuit.

Reproduces the paper's tuning observation ("a value of around 0.2
typically produces the best results"): small alpha reweights too
timidly to escape violations, large alpha oscillates; the damped
middle wins.

Usage::

    python examples/alpha_sweep.py [circuit]   # default: s641
"""

import sys

from repro.core import lac_retiming
from repro.experiments.fixtures import prepared_instance
from repro.retime import IncrementalMinArea


def main(argv) -> int:
    name = argv[1] if len(argv) > 1 else "s641"
    print(f"preparing {name} (flow up to the constraint system)...")
    instance = prepared_instance(name)
    print(
        f"T_init={instance.t_init:.2f} T_min={instance.t_min:.2f} "
        f"T_clk={instance.t_clk:.2f}\n"
    )
    print(f"{'alpha':>6} {'N_FOA':>6} {'N_F':>5} {'N_wr':>5}  history (N_FOA per round)")
    for alpha in [0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.0]:
        result = lac_retiming(
            instance.expanded.graph,
            instance.expanded.unit_region,
            instance.grid,
            instance.t_clk,
            alpha=alpha,
            solver=IncrementalMinArea(instance.expanded.graph, instance.system),
        )
        history = " ".join(str(foa) for foa, _nf in result.history)
        print(
            f"{alpha:>6.2f} {result.report.n_foa:>6} {result.report.n_f:>5} "
            f"{result.n_wr:>5}  {history}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
