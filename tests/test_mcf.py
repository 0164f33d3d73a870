"""Tests for the successive-shortest-path oracle and its retiming dual
(``tests/oracles/mcf.py``).

Cross-checked three ways: against hand-computed flows, against the
networkx oracle (:func:`tests.oracles.flow.optimal_labels`) and the
shipped HiGHS min-area solve, and against brute-force LP enumeration.
"""

import itertools
import random

import pytest

from repro.errors import InfeasibleConstraintsError, UnboundedObjectiveError
from repro.netlist import random_circuit
from repro.retime import (
    IncrementalMinArea,
    build_constraint_system,
    clock_period,
    min_area_retiming,
    normalise_labels,
    wd_matrices,
)
from tests.oracles.constraints import (
    Constraint,
    named_constraints,
    retiming_objective,
    unpruned_system,
)
from tests.oracles.flow import optimal_labels
from tests.oracles.mcf import MinCostFlow, solve_retiming_dual


class TestMinCostFlow:
    def test_simple_transshipment(self):
        mcf = MinCostFlow()
        mcf.add_node("s", demand=-2)  # supplies 2
        mcf.add_node("t", demand=2)  # wants 2
        mcf.add_node("m")
        mcf.add_arc("s", "m", cost=1)
        mcf.add_arc("m", "t", cost=1)
        mcf.add_arc("s", "t", cost=5)
        cost, _pot = mcf.solve()
        assert cost == pytest.approx(4.0)  # both units via m
        assert mcf.flow_on("s", "m") == pytest.approx(2.0)
        assert mcf.flow_on("s", "t") == pytest.approx(0.0)

    def test_negative_arc_used(self):
        mcf = MinCostFlow()
        mcf.add_node("a", demand=-1)
        mcf.add_node("b", demand=1)
        mcf.add_arc("a", "b", cost=-3)
        cost, _pot = mcf.solve()
        assert cost == pytest.approx(-3.0)

    def test_negative_cycle_detected(self):
        mcf = MinCostFlow()
        mcf.add_node("a", demand=-1)
        mcf.add_node("b", demand=1)
        mcf.add_arc("a", "b", cost=1)
        mcf.add_arc("b", "a", cost=-2)
        with pytest.raises(InfeasibleConstraintsError):
            mcf.solve()

    def test_unreachable_deficit(self):
        mcf = MinCostFlow()
        mcf.add_node("a", demand=-1)
        mcf.add_node("b", demand=1)  # no arcs at all
        with pytest.raises(UnboundedObjectiveError):
            mcf.solve()

    def test_nonzero_demand_sum_rejected(self):
        mcf = MinCostFlow()
        mcf.add_node("a", demand=1)
        with pytest.raises(ValueError):
            mcf.solve()

    def test_zero_demand_trivial(self):
        mcf = MinCostFlow()
        mcf.add_node("a")
        mcf.add_node("b")
        mcf.add_arc("a", "b", cost=7)
        cost, _pot = mcf.solve()
        assert cost == 0.0


class TestRetimingDual:
    def brute_force(self, constraints, objective, radius=3):
        nodes = sorted({c.u for c in constraints} | {c.v for c in constraints})
        best = None
        for combo in itertools.product(
            range(-radius, radius + 1), repeat=len(nodes)
        ):
            labels = dict(zip(nodes, combo))
            if any(labels[c.u] - labels[c.v] > c.bound for c in constraints):
                continue
            val = sum(objective.get(n, 0) * labels[n] for n in nodes)
            best = val if best is None else min(best, val)
        return best

    def test_matches_brute_force(self):
        rng = random.Random(11)
        for _trial in range(20):
            n = rng.randint(2, 4)
            nodes = [f"v{i}" for i in range(n)]
            constraints = []
            for i in range(n):
                u, v = nodes[i], nodes[(i + 1) % n]
                constraints.append(Constraint(u, v, rng.randint(0, 3), "edge"))
                constraints.append(Constraint(v, u, rng.randint(0, 3), "edge"))
            coeffs = [rng.randint(-3, 3) for _ in range(n - 1)]
            coeffs.append(-sum(coeffs))
            objective = dict(zip(nodes, coeffs))

            labels = solve_retiming_dual(constraints, objective)
            assert all(
                labels[c.u] - labels[c.v] <= c.bound for c in constraints
            )
            value = sum(objective[x] * labels[x] for x in nodes)
            assert value == self.brute_force(constraints, objective)

    def test_matches_networkx_backend(self):
        for seed in range(4):
            g = random_circuit("mcf", n_units=25, n_ffs=15, seed=seed)
            wd = wd_matrices(g)
            period = clock_period(g, wd)
            constraints = named_constraints(build_constraint_system(g, period))
            objective = retiming_objective(g)
            ours = solve_retiming_dual(constraints, objective)
            theirs = optimal_labels(constraints, objective)
            value = lambda lab: sum(
                objective.get(v, 0) * lab.get(v, 0) for v in g.units()
            )
            assert value(ours) == value(theirs)
            assert all(
                ours.get(c.u, 0) - ours.get(c.v, 0) <= c.bound
                for c in constraints
            )

    def test_min_area_backend_equivalence(self):
        """Full min-area retiming agrees whichever solver runs the dual."""
        g = random_circuit("mcfb", n_units=30, n_ffs=20, seed=7)
        wd = wd_matrices(g)
        period = clock_period(g, wd)
        system = build_constraint_system(g, period)
        labels = solve_retiming_dual(
            named_constraints(system), retiming_objective(g)
        )
        labels = normalise_labels(g, {v: labels.get(v, 0) for v in g.units()})
        ours = g.retimed(labels).total_flip_flops()
        reference = min_area_retiming(
            g, period, solver=IncrementalMinArea(g, system)
        ).total_ffs
        assert ours == reference


class TestBackendParameter:
    """The native SSP dual solver against the shipped min-area baseline
    (HiGHS) on an unpruned constraint system."""

    def test_min_area_native_backend(self):
        g = random_circuit("bk", n_units=25, n_ffs=12, seed=5)
        period = clock_period(g)
        system = unpruned_system(g, period)
        labels = solve_retiming_dual(
            named_constraints(system), retiming_objective(g)
        )
        native = g.retimed(
            normalise_labels(g, {v: labels.get(v, 0) for v in g.units()})
        )
        baseline = min_area_retiming(g, period, solver=IncrementalMinArea(g, system))
        assert native.total_flip_flops() == baseline.total_ffs
