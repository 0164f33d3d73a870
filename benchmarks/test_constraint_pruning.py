"""Bench: clocking-constraint redundancy pruning.

The paper points at Maheshwari–Sapatnekar constraint reduction as the
lever for cutting min-area retiming run time. This bench measures our
reduction (DESIGN.md, "Algorithmic notes") on a benchmark circuit:
constraint counts of the shipped (pruned) system against the unpruned
oracle rows, generation time, and — the soundness property — that the
optimum found on the pruned system satisfies every unpruned
constraint.
"""

import time

import pytest

from repro.compile import CompiledCircuit
from repro.experiments.fixtures import prepared_instance
from repro.retime import (
    IncrementalMinArea,
    build_constraint_system,
    min_area_retiming,
)
from tests.oracles.constraints import named_constraints, unpruned_system


@pytest.fixture(scope="module")
def instance():
    return prepared_instance("s641")


def test_pruning_shrinks_and_preserves_optimum(benchmark, instance):
    graph = instance.expanded.graph
    t_clk = instance.t_clk
    # A fresh artifact: the instance's own already holds the pruned pairs.
    compiled = CompiledCircuit.compile(graph)

    t0 = time.perf_counter()
    plain = unpruned_system(graph, t_clk, compiled=compiled)
    t_plain = time.perf_counter() - t0

    t0 = time.perf_counter()
    pruned = benchmark.pedantic(
        lambda: build_constraint_system(graph, t_clk, compiled=compiled),
        rounds=1,
        iterations=1,
    )
    t_pruned = time.perf_counter() - t0

    n_plain = len(plain) - plain.n_static
    n_pruned = len(pruned) - pruned.n_static
    print(
        f"\nclock constraints: {n_plain} -> {n_pruned} "
        f"({n_pruned / max(n_plain, 1):.1%} kept); "
        f"generation {t_plain:.2f}s plain vs {t_pruned:.2f}s pruned"
    )
    assert n_pruned < n_plain

    # Soundness: the optimum of the pruned system satisfies every
    # constraint of the unpruned one (pruning removed only implied
    # constraints), so both systems share their optimum.
    labels = min_area_retiming(
        graph, t_clk, solver=IncrementalMinArea(graph, pruned)
    ).labels
    violated = [
        c
        for c in named_constraints(plain)
        if labels.get(c.u, 0) - labels.get(c.v, 0) > c.bound
    ]
    assert violated == []
