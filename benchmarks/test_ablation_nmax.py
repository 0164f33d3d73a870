"""Ablation: the non-improvement stopping window ``N_max``.

The paper terminates LAC-retiming "when the result is not improved for
N_max times" and reports that only a few weighted min-area retimings
(``N_wr``) are needed. This bench sweeps ``N_max`` and shows the
N_FOA / N_wr trade-off: larger windows can only improve the best
solution kept, at the cost of more solves.
"""

import pytest

from repro.core import lac_retiming
from repro.experiments.fixtures import prepared_instance
from repro.retime import IncrementalMinArea

N_MAXES = [1, 2, 5, 10]


@pytest.fixture(scope="module")
def instance():
    return prepared_instance("s526")


@pytest.fixture(scope="module")
def nmax_results():
    results = {}
    yield results
    print("\n\n=== N_max ablation (circuit s526) ===")
    print(f"{'N_max':>6} {'N_FOA':>6} {'N_wr':>5}")
    for n_max in sorted(results):
        n_foa, n_wr = results[n_max]
        print(f"{n_max:>6} {n_foa:>6} {n_wr:>5}")
    if set(N_MAXES) <= set(results):
        # Monotone: a larger patience window never yields a worse best.
        ordered = [results[n][0] for n in sorted(results)]
        assert all(a >= b for a, b in zip(ordered, ordered[1:]))
        # The paper's headline: N_wr stays in the single digits /
        # low tens even with a patient window.
        assert results[10][1] <= 40


@pytest.mark.parametrize("n_max", N_MAXES)
def test_nmax_sweep(benchmark, instance, n_max, nmax_results):
    result = benchmark.pedantic(
        lambda: lac_retiming(
            instance.expanded.graph,
            instance.expanded.unit_region,
            instance.grid,
            instance.t_clk,
            n_max=n_max,
            max_rounds=60,
            solver=IncrementalMinArea(instance.expanded.graph, instance.system),
        ),
        rounds=1,
        iterations=1,
    )
    nmax_results[n_max] = (result.report.n_foa, result.n_wr)
