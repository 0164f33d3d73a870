"""Tests for fanout-sharing min-area retiming."""

import itertools

import pytest

from repro.netlist import CircuitGraph, random_circuit, s27_graph
from repro.retime import clock_period, min_area_retiming
from repro.retime.sharing import (
    min_area_retiming_shared,
    shared_register_count,
)
from tests.test_retiming import assert_legal_retiming


def star_circuit():
    """One driver fanning out to three sinks, each fanout registered.

    Per-edge counting sees 3 registers; sharing sees 1. A retiming that
    pulls the registers back to the driver's fanin (if legal) helps the
    per-edge count but not the shared count.
    """
    g = CircuitGraph("star")
    g.add_unit("src", delay=1.0)
    g.add_unit("hub", delay=1.0)
    for i in range(3):
        g.add_unit(f"s{i}", delay=1.0)
    g.add_connection("src", "hub", weight=0)
    for i in range(3):
        g.add_connection("hub", f"s{i}", weight=1)
        g.add_connection(f"s{i}", "src", weight=2)  # close cycles
    return g


class TestSharedCount:
    def test_counts_max_per_driver(self):
        g = star_circuit()
        # hub: max(1,1,1)=1; each s_i: 2; src: 0 -> total 7
        assert shared_register_count(g) == 7
        assert g.total_flip_flops() == 9

    def test_zero_for_combinational(self):
        g = CircuitGraph()
        g.add_unit("a")
        g.add_unit("b")
        g.add_connection("a", "b", weight=0)
        assert shared_register_count(g) == 0


class TestSharedRetiming:
    def test_never_worse_than_classic_in_shared_metric(self):
        for seed in range(3):
            g = random_circuit("sh", n_units=30, n_ffs=20, seed=seed)
            period = clock_period(g)
            classic = min_area_retiming(g, period)
            shared = min_area_retiming_shared(g, period)
            assert shared_register_count(shared.graph) <= shared_register_count(
                classic.graph
            )
            assert_legal_retiming(g, shared.labels, period=period)

    def test_is_true_shared_optimum_on_star(self):
        g = star_circuit()
        period = 10.0
        result = min_area_retiming_shared(g, period)
        achieved = shared_register_count(result.graph)

        best = None
        units = list(g.units())
        for combo in itertools.product(range(-2, 3), repeat=len(units)):
            labels = dict(zip(units, combo))
            try:
                candidate = g.retimed(labels)
            except Exception:
                continue
            if clock_period(candidate) <= period:
                n = shared_register_count(candidate)
                best = n if best is None else min(best, n)
        assert achieved == best

    def test_infeasible_period_raises(self):
        from repro.errors import InfeasiblePeriodError

        g = star_circuit()
        with pytest.raises(InfeasiblePeriodError):
            min_area_retiming_shared(g, period=0.5)

    def test_s27_shared(self):
        g = s27_graph()
        period = clock_period(g)
        result = min_area_retiming_shared(g, period)
        assert shared_register_count(result.graph) <= shared_register_count(g)
        assert_legal_retiming(g, result.labels, period=period)
