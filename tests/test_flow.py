"""Tests for difference-constraint solvers (feasibility + LP optimum).

``optimal_labels`` (the network-simplex oracle in
``tests/oracles/flow.py``) is cross-checked against brute-force
enumeration of small integer label spaces, which validates the
min-cost-flow duality and the potential-recovery step end to end. The
shipped solver, HiGHS through :func:`min_area_retiming`, is then
checked against that oracle: two independent solvers, one objective
value. ``feasible_labels`` is the Bellman–Ford oracle from
``tests/oracles/feasibility.py``; the feasibility tests pin it before
other tests trust it.
"""

import itertools
import random

import pytest

from repro.errors import InfeasibleConstraintsError, RetimingError
from repro.netlist import random_circuit
from repro.retime import (
    Constraint,
    IncrementalMinArea,
    build_constraint_system,
    clock_period,
    min_area_retiming,
    min_period_retiming,
    retiming_objective,
    wd_matrices,
)
from tests.oracles.feasibility import feasible_labels
from tests.oracles.flow import min_area_labels, optimal_labels


def check(constraints, labels):
    return all(labels[c.u] - labels[c.v] <= c.bound for c in constraints)


def brute_force_min(constraints, objective, radius=3):
    """Exhaustively minimise over labels in [-radius, radius]^n."""
    nodes = sorted({c.u for c in constraints} | {c.v for c in constraints})
    best = None
    for combo in itertools.product(range(-radius, radius + 1), repeat=len(nodes)):
        labels = dict(zip(nodes, combo))
        if not check(constraints, labels):
            continue
        value = sum(objective.get(v, 0) * labels[v] for v in nodes)
        if best is None or value < best:
            best = value
    return best


class TestFeasibility:
    def test_simple_feasible(self):
        cs = [Constraint("a", "b", 1, "edge"), Constraint("b", "a", 0, "edge")]
        labels = feasible_labels(cs)
        assert labels is not None
        assert check(cs, labels)

    def test_infeasible_negative_cycle(self):
        cs = [Constraint("a", "b", -1, "clock"), Constraint("b", "a", 0, "edge")]
        assert feasible_labels(cs) is None

    def test_equality_pinning(self):
        cs = [Constraint("a", "b", 0, "host"), Constraint("b", "a", 0, "host")]
        labels = feasible_labels(cs)
        assert labels["a"] == labels["b"]

    def test_parallel_constraints_tightest_wins(self):
        cs = [
            Constraint("a", "b", 5, "edge"),
            Constraint("a", "b", -2, "clock"),
            Constraint("b", "a", 2, "edge"),
        ]
        labels = feasible_labels(cs)
        assert labels is not None
        assert labels["a"] - labels["b"] <= -2


class TestOptimality:
    def test_matches_brute_force_on_random_systems(self):
        rng = random.Random(7)
        for trial in range(25):
            n = rng.randint(2, 4)
            nodes = [f"v{i}" for i in range(n)]
            constraints = []
            # Random bounds; ensure a cycle structure so LP is bounded.
            for i in range(n):
                u, v = nodes[i], nodes[(i + 1) % n]
                constraints.append(Constraint(u, v, rng.randint(0, 3), "edge"))
                constraints.append(Constraint(v, u, rng.randint(0, 3), "edge"))
            # Zero-sum objective.
            coeffs = [rng.randint(-3, 3) for _ in range(n - 1)]
            coeffs.append(-sum(coeffs))
            objective = dict(zip(nodes, coeffs))

            labels = optimal_labels(constraints, objective)
            assert check(constraints, labels)
            value = sum(objective[v] * labels[v] for v in nodes)
            expected = brute_force_min(constraints, objective)
            assert expected is not None
            assert value == expected, f"trial {trial}: got {value} != {expected}"

    def test_infeasible_raises(self):
        cs = [Constraint("a", "b", -1, "clock"), Constraint("b", "a", 0, "edge")]
        with pytest.raises(InfeasibleConstraintsError):
            optimal_labels(cs, {"a": 1, "b": -1})

    def test_nonzero_sum_objective_rejected(self):
        cs = [Constraint("a", "b", 1, "edge"), Constraint("b", "a", 1, "edge")]
        with pytest.raises(RetimingError, match="sum"):
            optimal_labels(cs, {"a": 1, "b": 1})

    def test_integral_labels(self):
        cs = [Constraint("a", "b", 2, "edge"), Constraint("b", "a", 0, "edge")]
        labels = optimal_labels(cs, {"a": -1, "b": 1})
        assert all(isinstance(x, int) for x in labels.values())
        # Minimising -a + b pushes a up / b down until a - b = 2.
        assert labels["a"] - labels["b"] == 2


class TestHighsAgainstOracle:
    """The shipped min-area solve reaches the oracle's objective value."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_uniform_and_weighted_objectives_match(self, seed):
        g = random_circuit(f"flow{seed}", n_units=30, n_ffs=12, seed=seed)
        wd = wd_matrices(g)
        t_init = clock_period(g, wd)
        t_min, _ = min_period_retiming(g)
        period = t_min + 0.5 * (t_init - t_min)
        system = build_constraint_system(g, period)
        rng = random.Random(seed)
        for weights in (None, {u: rng.uniform(0.1, 10.0) for u in g.units()}):
            objective = retiming_objective(g, weights)
            shipped = min_area_retiming(
                g, period, weights=weights, solver=IncrementalMinArea(g, system)
            )
            oracle = min_area_labels(g, system, weights)
            value = lambda labels: sum(objective[v] * labels[v] for v in g.units())
            assert value(shipped.labels) == value(oracle)
            assert all(
                shipped.labels[c.u] - shipped.labels[c.v] <= c.bound
                for c in system.constraints
            )
