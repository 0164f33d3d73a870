"""Tests for min-area, weighted min-area, and min-period retiming."""

import pytest

from repro.errors import InfeasiblePeriodError
from repro.netlist import CircuitGraph, random_circuit, s27_graph
from repro.retime import (
    IncrementalMinArea,
    build_constraint_system,
    clock_period,
    min_area_retiming,
    min_period_retiming,
    wd_matrices,
)
from repro.verify.retiming import check_retiming_labels
from repro.verify.timing import critical_period, late_units
from tests.oracles.constraints import (
    named_constraints,
    retiming_objective,
    unpruned_system,
)
from tests.oracles.feasibility import is_feasible_period
from tests.oracles.graph import cycle_conservation_witnesses
from tests.test_wd import correlator


def assert_legal_retiming(original, labels, period):
    """``labels`` legally retime ``original`` and meet ``period``,
    as certified by :mod:`repro.verify`."""
    witnesses = check_retiming_labels(original, labels)
    assert not witnesses, witnesses[:4]
    assert critical_period(original.retimed(labels)) <= period + 1e-9


class TestClockPeriod:
    def test_correlator_initial_period(self):
        # Longest register-free path: c4 -> a3 -> a2 -> a1 = 24.
        assert clock_period(correlator()) == 24.0

    def test_chain_period(self):
        g = CircuitGraph()
        g.add_unit("a", delay=2.0)
        g.add_unit("b", delay=5.0)
        g.add_connection("a", "b", weight=1)
        assert clock_period(g) == 5.0


class TestMinPeriod:
    def test_correlator_min_period_is_13(self):
        g = correlator()
        t_min, result = min_period_retiming(g)
        assert t_min == 13.0
        assert clock_period(result.graph) <= 13.0
        assert not cycle_conservation_witnesses(g, result.graph)

    def test_min_area_with_pruning_matches(self):
        """The shipped (pruned) system and the oracle's unpruned one
        give the same optimum."""
        g = correlator()
        plain = min_area_retiming(
            g, period=13.0, solver=IncrementalMinArea(g, unpruned_system(g, 13.0))
        )
        pruned = min_area_retiming(g, period=13.0)
        assert plain.total_ffs == pruned.total_ffs

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_circuits_improve_or_match(self, seed):
        g = random_circuit("rnd", n_units=40, n_ffs=30, seed=seed)
        t_init = clock_period(g)
        t_min, result = min_period_retiming(g)
        assert t_min <= t_init + 1e-9
        assert_legal_retiming(g, result.labels, period=t_min)


class TestMinArea:
    def test_correlator_min_area_at_13_is_true_optimum(self):
        """Cross-check the LP solution against brute-force enumeration."""
        import itertools

        g = correlator()
        result = min_area_retiming(g, period=13.0)
        assert clock_period(result.graph) <= 13.0

        # Enumerate labels; feasibility via the (separately validated)
        # constraint system, which is much cheaper than re-running W/D.
        constraints = named_constraints(build_constraint_system(g, 13.0))
        units = list(g.units())
        best = None
        for combo in itertools.product(range(-2, 3), repeat=len(units)):
            labels = dict(zip(units, combo))
            if any(labels[c.u] - labels[c.v] > c.bound for c in constraints):
                continue
            ffs = g.retimed(labels).total_flip_flops()
            best = ffs if best is None else min(best, ffs)
        assert best is not None
        assert result.total_ffs == best

    def test_minimality_vs_feasible_solutions(self):
        g = correlator()
        wd = wd_matrices(g)
        labels = is_feasible_period(g, 13.0, wd)
        assert labels is not None
        feasible_ffs = g.retimed(labels).total_flip_flops()
        optimal = min_area_retiming(g, period=13.0)
        assert optimal.total_ffs <= feasible_ffs

    def test_infeasible_period_raises(self):
        g = correlator()
        with pytest.raises(InfeasiblePeriodError):
            min_area_retiming(g, period=12.0)

    def test_single_gate_delay_bounds_period(self):
        g = correlator()
        with pytest.raises(InfeasiblePeriodError):
            min_area_retiming(g, period=6.0)  # adder delay is 7

    def test_s27_end_to_end(self):
        g = s27_graph()
        t_init = clock_period(g)
        t_min, _ = min_period_retiming(g)
        assert t_min <= t_init
        result = min_area_retiming(g, period=t_init)
        assert result.total_ffs <= g.total_flip_flops()
        assert_legal_retiming(g, result.labels, period=t_init)

    def test_reuses_precomputed_constraints(self):
        g = correlator()
        system = build_constraint_system(g, 13.0)
        r1 = min_area_retiming(g, period=13.0, solver=IncrementalMinArea(g, system))
        r2 = min_area_retiming(g, period=13.0)
        assert r1.total_ffs == r2.total_ffs


class TestWeightedMinArea:
    def test_uniform_weights_match_classic(self):
        g = correlator()
        classic = min_area_retiming(g, period=13.0)
        weighted = min_area_retiming(
            g, period=13.0, weights={v: 1.0 for v in g.units()}
        )
        assert classic.total_ffs == weighted.total_ffs

    def test_heavy_vertex_repels_flip_flops(self):
        """Flip-flops on fanouts of an expensive unit are avoided."""
        # Ring: a -> b -> c -> a with 3 FFs; delays force spreading out
        # only via area weights, not timing.
        g = CircuitGraph()
        for name in "abc":
            g.add_unit(name, delay=1.0)
        g.add_connection("a", "b", weight=1)
        g.add_connection("b", "c", weight=1)
        g.add_connection("c", "a", weight=1)
        # Make FFs on a's fanout (edge a->b) very expensive.
        weights = {"a": 100.0, "b": 1.0, "c": 1.0}
        result = min_area_retiming(g, period=10.0, weights=weights)
        w_ab = [w for (u, v, _k), w in result.graph.connections() if u == "a"][0]
        assert w_ab == 0  # all pushed off the expensive fanout

    def test_objective_coefficients_sum_to_zero(self):
        g = random_circuit("rnd", n_units=25, n_ffs=10, seed=3)
        weights = {v: 1.0 + (hash(v) % 7) / 3.0 for v in g.units()}
        solver = IncrementalMinArea(g, build_constraint_system(g, clock_period(g)))
        coeffs = solver.objective_coefficients(weights)
        assert coeffs.sum() == 0
        assert dict(zip(g.units(), coeffs.tolist())) == retiming_objective(g, weights)


class TestVerification:
    def test_verify_rejects_period_miss(self):
        g = correlator()
        identity = g.retimed({v: 0 for v in g.units()})
        assert not check_retiming_labels(g, {v: 0 for v in g.units()})
        _arrival, late = late_units(identity, 20.0)
        assert late  # legal, but the period is missed

    def test_cycle_invariant_holds_for_all_retimings(self):
        g = correlator()
        _t, result = min_period_retiming(g)
        assert not cycle_conservation_witnesses(g, result.graph)
