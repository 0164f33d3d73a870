"""Bench: min-cost-flow solvers for the retiming dual.

The min-area baseline solves the retiming LP with HiGHS
(:func:`repro.retime.min_area_retiming`); the in-house
successive-shortest-path solver (:func:`tests.oracles.mcf.solve_retiming_dual`)
solves its min-cost-flow dual. Both must reach the same optimum flip-flop count
(cross-checked here on a real benchmark instance); the bench reports
their run times.
"""

import pytest

from repro.experiments.fixtures import prepared_instance
from repro.retime import IncrementalMinArea, min_area_retiming, normalise_labels
from tests.oracles.constraints import named_constraints, retiming_objective
from tests.oracles.mcf import solve_retiming_dual


@pytest.fixture(scope="module")
def instance():
    return prepared_instance("s386")


def _native_total_ffs(instance) -> int:
    graph = instance.expanded.graph
    labels = solve_retiming_dual(
        named_constraints(instance.system), retiming_objective(graph)
    )
    labels = normalise_labels(graph, {v: labels.get(v, 0) for v in graph.units()})
    return graph.retimed(labels).total_flip_flops()


def _highs_total_ffs(instance) -> int:
    graph = instance.expanded.graph
    solver = IncrementalMinArea(graph, instance.system)
    return min_area_retiming(graph, instance.t_clk, solver=solver).total_ffs


SOLVERS = {"highs": _highs_total_ffs, "native": _native_total_ffs}


@pytest.mark.parametrize("backend", list(SOLVERS))
def test_backend(benchmark, instance, backend, backend_results):
    backend_results[backend] = benchmark.pedantic(
        lambda: SOLVERS[backend](instance), rounds=1, iterations=1
    )


@pytest.fixture(scope="module")
def backend_results():
    results = {}
    yield results
    if len(results) == 2:
        print(f"\nbackend optima: {results}")
        assert results["highs"] == results["native"]
