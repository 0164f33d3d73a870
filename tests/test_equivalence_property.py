"""Property test: retiming preserves behaviour on random netlists.

The strongest end-to-end correctness evidence in the suite: generate a
random gate-level netlist, convert it to a retiming graph, compute a
*real* retiming (minimum-period, and min-area at a relaxed period),
carry the register moves back to the netlist, and simulate both on
random stimulus. Outputs must agree wherever both are defined.
"""

import pytest

from repro.netlist import (
    LogicSimulator,
    bench_to_graph,
    equivalent_streams,
    random_bench_netlist,
    random_input_stream,
    retime_bench,
)
from repro.retime import clock_period, min_area_retiming, min_period_retiming

CASES = [
    # (n_gates, n_inputs, n_dffs, n_outputs, seed)
    (8, 2, 2, 2, 0),
    (15, 3, 4, 3, 1),
    (25, 4, 6, 4, 2),
    (40, 5, 10, 5, 3),
    (60, 6, 12, 6, 4),
]


def _check_equivalence(netlist, labels, seed, cycles=50):
    gate_labels = {net: labels.get(net, 0) for net in netlist.gates}
    transformed = retime_bench(netlist, gate_labels)
    stream = random_input_stream(netlist, cycles, seed=seed + 100)
    a = LogicSimulator(netlist).run(stream)
    b = LogicSimulator(transformed).run(stream)
    assert equivalent_streams(
        a,
        b,
        outputs_a=netlist.outputs,
        outputs_b=transformed.outputs,
        require_settled=False,
    ), f"retimed {netlist.name} diverges from the original"


@pytest.mark.parametrize("n_gates,n_inputs,n_dffs,n_outputs,seed", CASES)
def test_min_period_retiming_preserves_behavior(
    n_gates, n_inputs, n_dffs, n_outputs, seed
):
    netlist = random_bench_netlist(
        f"rb{seed}", n_gates, n_inputs, n_dffs, n_outputs, seed
    )
    graph = bench_to_graph(netlist)
    _t, result = min_period_retiming(graph)
    _check_equivalence(netlist, result.labels, seed)


@pytest.mark.parametrize("n_gates,n_inputs,n_dffs,n_outputs,seed", CASES)
def test_min_area_retiming_preserves_behavior(
    n_gates, n_inputs, n_dffs, n_outputs, seed
):
    netlist = random_bench_netlist(
        f"rb{seed}", n_gates, n_inputs, n_dffs, n_outputs, seed
    )
    graph = bench_to_graph(netlist)
    period = clock_period(graph)
    result = min_area_retiming(graph, period)
    _check_equivalence(netlist, result.labels, seed)
