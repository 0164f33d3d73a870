"""Tests for the sparse FEAS engine and the min-period search's checkers.

Unlike classic single-host FEAS (conservative on open circuits),
:class:`FeasProbe` ties the split hosts' labels instead of contracting
them and must therefore decide *exactly* the split-host feasibility
question — the same one the Bellman–Ford checker and the
constraint-object oracle (``tests/oracles/feasibility.py``) answer.
These tests pin that equivalence, the warm-start contract, and T_min
invariance between the FEAS search and the Bellman–Ford fallback that
runs when :meth:`FeasProbe.build` rejects a graph.
"""

import numpy as np
import pytest

from repro.compile import CompiledCircuit
from repro.errors import RetimingError
from repro.netlist import CircuitGraph, random_circuit, s27_graph
from repro.retime import (
    FeasProbe,
    candidate_periods,
    clock_period,
    min_period_retiming,
    minperiod,
    wd_matrices,
)
from tests.oracles.feasibility import is_feasible_period
from tests.test_wd import correlator


class _RejectingFeasProbe:
    """Stands in for :class:`FeasProbe` to force the Bellman–Ford search."""

    @staticmethod
    def build(graph):
        raise RetimingError("FEAS engine rejected the graph")


def t_min_per_prober(graph, monkeypatch):
    """``{prober: (T_min, result)}`` for the FEAS search and the fallback."""
    out = {"feas": min_period_retiming(graph)}
    with monkeypatch.context() as m:
        m.setattr(minperiod, "FeasProbe", _RejectingFeasProbe)
        out["bellman-ford"] = min_period_retiming(graph)
    return out


def self_loop_graph():
    """A zero-delay unit with a zero-weight self-loop on a 1-FF ring.

    W/D are defined (the loop adds no delay), but FEAS arrival times
    are not, so :meth:`FeasProbe.build` rejects it.
    """
    g = CircuitGraph("selfloop")
    g.add_unit("z", delay=0.0)
    g.add_unit("a", delay=1.0)
    g.add_unit("b", delay=2.0)
    g.add_connection("z", "z", weight=0)
    g.add_connection("z", "a", weight=0)
    g.add_connection("a", "b", weight=0)
    g.add_connection("b", "z", weight=1)
    return g


class TestAgreement:
    """FeasProbe verdicts == split-host Bellman–Ford verdicts."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_circuits(self, seed):
        g = random_circuit("fp", n_units=30, n_ffs=20, seed=seed)
        wd = wd_matrices(g)
        engine = FeasProbe.build(g)
        t_init = clock_period(g, wd)
        for frac in (0.3, 0.55, 0.7, 0.85, 0.95, 1.0, 1.15):
            period = frac * t_init
            ref = is_feasible_period(g, period, wd)
            got = engine.labels(period)
            assert (got is None) == (ref is None), f"period {period}"
            if got is not None:
                # the witness must be a genuine solution...
                assert clock_period(g.retimed(got)) <= period + 1e-9
                # ...with the hosts pinned at zero
                for host in g.host_units():
                    assert got[host] == 0

    def test_s27_combinational_io(self):
        # s27 has combinational PI->PO paths — exactly the case where
        # contraction-based FEAS is conservative; the probe must not be.
        g = s27_graph()
        wd = wd_matrices(g)
        engine = FeasProbe.build(g)
        for period in candidate_periods(wd):
            ref = is_feasible_period(g, period, wd)
            got = engine.labels(period)
            assert (got is None) == (ref is None), f"period {period}"

    def test_correlator_without_hosts(self):
        g = correlator()
        engine = FeasProbe.build(g)
        assert engine.labels(13.0) is not None
        assert engine.labels(12.0) is None

    def test_zero_weight_cycle_rejected_at_build(self):
        g = CircuitGraph()
        g.add_unit("a", delay=1.0)
        g.add_unit("b", delay=1.0)
        g.add_connection("a", "b", weight=0)
        g.add_connection("b", "a", weight=0)
        with pytest.raises(RetimingError, match="cycle"):
            FeasProbe.build(g)


class TestWarmStart:
    def test_witness_reuse_preserves_verdicts(self):
        g = random_circuit("fw", n_units=30, n_ffs=20, seed=7)
        wd = wd_matrices(g)
        engine = FeasProbe.build(g)
        t_init = clock_period(g, wd)
        warm = engine.probe(t_init)
        assert warm is not None
        for frac in (0.9, 0.75, 0.6, 0.45):
            period = frac * t_init
            cold = engine.probe(period)
            hot = engine.probe(period, start=warm)
            assert (cold is None) == (hot is None), f"period {period}"
            if hot is not None:
                assert clock_period(g.retimed(engine.label_dict(hot))) \
                    <= period + 1e-9
                warm = hot

    def test_illegal_start_rejected(self):
        g = random_circuit("fw", n_units=20, n_ffs=12, seed=1)
        engine = FeasProbe.build(g)
        bad = np.zeros(engine.n, dtype=np.int64)
        bad[engine.eu[0]] = 5  # pushes that vertex's out-edges negative
        with pytest.raises(ValueError, match="legal"):
            engine.probe(clock_period(g), start=bad)

    def test_wrong_shape_rejected(self):
        g = random_circuit("fw", n_units=20, n_ffs=12, seed=2)
        engine = FeasProbe.build(g)
        with pytest.raises(ValueError, match="shape"):
            engine.probe(clock_period(g), start=np.zeros(3, dtype=np.int64))

    def test_untied_hosts_rejected(self):
        g = random_circuit("fw", n_units=20, n_ffs=12, seed=3)
        engine = FeasProbe.build(g)
        bad = np.zeros(engine.n, dtype=np.int64)
        bad[engine.host_idx[0]] = 1
        with pytest.raises(ValueError, match="hosts"):
            engine.probe(clock_period(g), start=bad)

    def test_budgeted_probe_reports_unverified(self):
        g = random_circuit("fb", n_units=30, n_ffs=20, seed=5)
        engine = FeasProbe.build(g)
        t_init = clock_period(g)
        verified, raw = engine.probe_budget(t_init, None, rounds=64)
        assert verified and raw is not None
        # an infeasible period can never verify, whatever the budget
        verified, raw = engine.probe_budget(0.4 * t_init, None, rounds=1)
        assert not verified and raw is None


class TestMinPeriodProbers:
    @pytest.mark.parametrize("seed", range(4))
    def test_t_min_independent_of_prober(self, seed, monkeypatch):
        g = random_circuit("fm", n_units=30, n_ffs=20, seed=seed)
        results = {}
        for prober, (t_min, result) in t_min_per_prober(g, monkeypatch).items():
            results[prober] = t_min
            assert clock_period(result.graph) <= t_min + 1e-9
        assert len(set(results.values())) == 1, results

    def test_t_min_equals_linear_scan(self):
        # T_min is the minimum over the *exact* candidate set (tol=0),
        # not just the merged search domain: the exact-tie refinement
        # must land on the same value as an exhaustive scan with the
        # constraint-object oracle.
        g = random_circuit("fm", n_units=25, n_ffs=15, seed=11)
        wd = wd_matrices(g)
        t_min, _ = min_period_retiming(g, wd)
        feasible = [
            t
            for t in candidate_periods(wd, tol=0.0)
            if is_feasible_period(g, t, wd) is not None
        ]
        assert t_min == min(feasible)

    def test_s27_t_min_independent_of_prober(self, monkeypatch):
        periods = {
            p: t_min for p, (t_min, _r) in t_min_per_prober(
                s27_graph(), monkeypatch
            ).items()
        }
        assert len(set(periods.values())) == 1, periods

    def test_rejected_graph_falls_back_to_bellman_ford(self):
        g = self_loop_graph()
        with pytest.raises(RetimingError, match="self-loop"):
            FeasProbe.build(g)
        assert CompiledCircuit.compile(g).feas is None
        wd = wd_matrices(g)
        oracle = min(
            t
            for t in candidate_periods(wd, tol=0.0)
            if is_feasible_period(g, t, wd) is not None
        )
        assert oracle == 3.0
        t_min, result = min_period_retiming(g)
        assert t_min == oracle
        assert clock_period(result.graph) <= t_min + 1e-9
        # the compiled route takes the same fallback
        compiled = CompiledCircuit.compile(g)
        assert min_period_retiming(g, compiled=compiled)[0] == oracle
