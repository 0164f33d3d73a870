"""Bench: run-time scaling of LAC-retiming vs min-area retiming.

Paper, Section 4.2 / 5: "the time complexity of this heuristic is in
the same order as that of min-area retiming" because the clock-period
constraints are generated only once and only the (cheap) min-cost-flow
solve repeats. This bench times, across circuit sizes, (a) constraint
generation, (b) one min-area solve, and (c) the full LAC loop, and
asserts LAC stays within a small multiple of min-area once constraint
generation is shared.
"""

import time

import pytest

from repro.core import lac_retiming
from repro.experiments.fixtures import prepared_instance
from repro.retime import IncrementalMinArea, min_area_retiming

CIRCUITS = ["s298", "s641", "s1196"]


@pytest.fixture(scope="module")
def scaling_results():
    results = {}
    yield results
    print("\n\n=== run-time scaling (seconds) ===")
    print(f"{'circuit':>8} {'units':>6} {'min-area':>9} {'LAC':>7} {'N_wr':>5} {'ratio':>6}")
    for name in CIRCUITS:
        if name not in results:
            continue
        units, t_ma, t_lac, n_wr = results[name]
        print(
            f"{name:>8} {units:>6} {t_ma:>9.2f} {t_lac:>7.2f} {n_wr:>5} "
            f"{t_lac / max(t_ma, 1e-9):>6.1f}"
        )


@pytest.mark.parametrize("name", CIRCUITS)
def test_lac_same_order_as_min_area(benchmark, name, scaling_results):
    instance = prepared_instance(name)
    graph = instance.expanded.graph

    t0 = time.perf_counter()
    min_area_retiming(
        graph, instance.t_clk, solver=IncrementalMinArea(graph, instance.system)
    )
    t_ma = time.perf_counter() - t0

    t0 = time.perf_counter()
    lac = benchmark.pedantic(
        lambda: lac_retiming(
            instance.expanded.graph,
            instance.expanded.unit_region,
            instance.grid,
            instance.t_clk,
            solver=IncrementalMinArea(graph, instance.system),
        ),
        rounds=1,
        iterations=1,
    )
    t_lac = time.perf_counter() - t0

    scaling_results[name] = (graph.num_units, t_ma, t_lac, lac.n_wr)
    # "Same order": the loop is N_wr solves on one constraint system,
    # so the ratio should be close to N_wr and far below quadratic blowup.
    assert t_lac <= max(3.0 * lac.n_wr, 10.0) * max(t_ma, 1e-3)
