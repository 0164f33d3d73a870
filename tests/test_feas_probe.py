"""Tests for the min-period search's feasibility probes.

Every probe of the search (a ``feas/probe`` span) is a warm-started
run of the dense checker at one exact candidate period. The probes
must decide the *split-host* feasibility question exactly (the one the
constraint-object oracle in ``tests/oracles/feasibility.py`` answers),
warm starts must never change a verdict, and ``T_min`` must be the
smallest feasible candidate: the same value as a linear scan, probe
for probe.
"""

import numpy as np
import pytest

from repro.compile import CompiledCircuit
from repro.errors import NetlistError, RetimingError
from repro.netlist import CircuitGraph, random_circuit, s27_graph
from repro.obs import Tracer
from repro.retime import (
    candidate_periods,
    clock_period,
    clock_rows,
    min_period_retiming,
    wd_matrices,
)
from repro.retime.fastcheck import FeasibilityChecker
from tests.oracles.feasibility import is_feasible_period
from tests.test_feas import self_loop_graph
from tests.test_wd import correlator


def search_probes(graph):
    """``(T_min, [(t, feasible)])``: a traced search's probes in order."""
    tracer = Tracer()
    t_min, _ = min_period_retiming(graph, tracer=tracer)
    probes = sorted(
        (s for s in tracer.spans if s.name == "feas/probe"), key=lambda s: s.start
    )
    return t_min, [(p.attrs["t"], p.attrs["verdict"] == "feasible") for p in probes]


def t_min_per_prober(graph):
    """``{prober: T_min}`` for the search and for a linear scan of the
    candidates with cold :meth:`FeasibilityChecker.check` probes."""
    wd = wd_matrices(graph)
    checker = FeasibilityChecker.build(graph, wd)
    scan = next(t for t in candidate_periods(wd) if checker.check(t) is not None)
    return {"search": min_period_retiming(graph)[0], "linear-scan": scan}


class TestAgreement:
    """Search probe verdicts == split-host oracle verdicts."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_circuits(self, seed):
        g = random_circuit("fp", n_units=30, n_ffs=20, seed=seed)
        wd = wd_matrices(g)
        t_min, probes = search_probes(g)
        assert probes
        for period, feasible in probes:
            ref = is_feasible_period(g, period, wd)
            assert feasible == (ref is not None), f"period {period}"
        _t, result = min_period_retiming(g)
        # the witness is a genuine solution with the hosts pinned at zero
        assert clock_period(result.graph) <= t_min + 1e-9
        for host in g.host_units():
            assert result.labels[host] == 0

    def test_s27_combinational_io(self):
        # s27 has combinational PI->PO paths — exactly the case where
        # contracting the hosts into one vertex is conservative; the
        # split-host probes must not be.
        g = s27_graph()
        wd = wd_matrices(g)
        _t_min, probes = search_probes(g)
        assert any(f for _, f in probes) and not all(f for _, f in probes)
        for period, feasible in probes:
            ref = is_feasible_period(g, period, wd)
            assert feasible == (ref is not None), f"period {period}"

    def test_correlator_without_hosts(self):
        g = correlator()
        t_min, probes = search_probes(g)
        assert t_min == 13.0
        assert (12.0, False) in probes

    def test_zero_weight_cycle_rejected_at_build(self):
        # Zero-delay units: the W/D matrices survive this cycle, the
        # compile does not.
        g = CircuitGraph()
        g.add_unit("a", delay=0.0)
        g.add_unit("b", delay=0.0)
        g.add_unit("c", delay=1.0)
        g.add_connection("a", "b", weight=0)
        g.add_connection("b", "a", weight=0)
        g.add_connection("b", "c", weight=1)
        wd_matrices(g)
        with pytest.raises(RetimingError, match="zero-weight cycle"):
            CompiledCircuit.compile(g)


class TestWarmStart:
    def test_witness_reuse_preserves_verdicts(self):
        # The search warm-starts each probe from the last feasible
        # witness; a cold probe at the same period agrees.
        g = random_circuit("fw", n_units=30, n_ffs=20, seed=7)
        checker = FeasibilityChecker.build(g, wd_matrices(g))
        _t_min, probes = search_probes(g)
        assert any(f for _, f in probes) and not all(f for _, f in probes)
        for period, feasible in probes:
            assert (checker.check(period) is not None) == feasible, period


class TestMinPeriodProbers:
    @pytest.mark.parametrize("seed", range(4))
    def test_t_min_independent_of_prober(self, seed):
        g = random_circuit("fm", n_units=30, n_ffs=20, seed=seed)
        results = t_min_per_prober(g)
        assert len(set(results.values())) == 1, results
        _t_min, result = min_period_retiming(g)
        assert clock_period(result.graph) <= results["search"] + 1e-9

    def test_t_min_equals_linear_scan(self):
        # T_min is the minimum over the exact candidate set: the
        # bisection lands on the same value as an exhaustive scan with
        # the constraint-object oracle.
        g = random_circuit("fm", n_units=25, n_ffs=15, seed=11)
        wd = wd_matrices(g)
        t_min, _ = min_period_retiming(g)
        feasible = [
            t for t in candidate_periods(wd) if is_feasible_period(g, t, wd) is not None
        ]
        assert t_min == min(feasible)

    def test_s27_t_min_independent_of_prober(self):
        periods = t_min_per_prober(s27_graph())
        assert len(set(periods.values())) == 1, periods

    def test_combinational_loop_rejected_everywhere(self):
        # A zero-weight self-loop is a combinational loop: the graph
        # check, the compile and the search all refuse it.
        g = self_loop_graph()
        with pytest.raises(NetlistError, match="combinational"):
            g.validate()
        with pytest.raises(RetimingError, match="self-loop"):
            CompiledCircuit.compile(g)
        with pytest.raises(RetimingError, match="self-loop"):
            min_period_retiming(g)

    def test_one_table_serves_the_search(self):
        # The search covers its lowest probe once: one feas/witness,
        # floored at the largest unit delay, whose table also gives
        # the rows a fresh build at T_min would.
        g = random_circuit("fm", n_units=40, n_ffs=20, seed=3)
        tracer = Tracer()
        t_min, found = min_period_retiming(g, tracer=tracer, search_only=True)
        (build,) = [s for s in tracer.spans if s.name == "feas/witness"]
        wd = found.checker.wd
        assert build.attrs["floor"] == wd.max_vertex_delay()
        assert found.period == t_min
        assert np.array_equal(
            found.checker.witness.rows(t_min), clock_rows(wd, t_min)
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_predecessor_of_t_min_refuted_by_a_probe(self, seed):
        # The bisection's answer is certified by its own probes: the
        # candidate just below T_min was probed and refuted by a
        # negative cycle (T_min is above the largest unit delay here).
        g = random_circuit("fm", n_units=40, n_ffs=20, seed=seed)
        wd = wd_matrices(g)
        tracer = Tracer()
        t_min, _ = min_period_retiming(g, tracer=tracer)
        below = max(t for t in candidate_periods(wd) if t < t_min)
        assert below >= wd.max_vertex_delay()
        (probe,) = [
            s for s in tracer.spans
            if s.name == "feas/probe" and s.attrs["t"] == below
        ]
        assert probe.attrs["verdict"] == "infeasible"
        assert probe.attrs["cycle_len"] >= 2
