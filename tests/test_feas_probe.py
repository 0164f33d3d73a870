"""Tests for the sparse FEAS engine and the min-period search's checkers.

Unlike classic single-host FEAS (conservative on open circuits),
:class:`FeasProbe` ties the split hosts' labels instead of contracting
them and must therefore decide *exactly* the split-host feasibility
question — the same one the Bellman–Ford checker and the
constraint-object oracle (``tests/oracles/feasibility.py``) answer.
These tests pin that equivalence, the warm-start contract, and T_min
invariance between the FEAS search and a bisection on the dense
Bellman–Ford checker.
"""

import numpy as np
import pytest

from repro.compile import CompiledCircuit
from repro.errors import NetlistError, RetimingError
from repro.netlist import CircuitGraph, random_circuit, s27_graph
from repro.retime import (
    FeasProbe,
    candidate_periods,
    clock_period,
    min_period_retiming,
    minperiod,
    wd_matrices,
)
from repro.retime.fastcheck import FeasibilityChecker
from tests.oracles.feasibility import is_feasible_period
from tests.test_wd import correlator


def feas_labels(engine, period, start=None):
    """A FEAS probe given the ``8 * (n + 1)`` round allowance that
    decides every instance here: labels by unit name with the hosts at
    0, or ``None`` when the infeasibility certificate fired (running
    out of rounds instead fails the test)."""
    allowance = 8 * (engine.n + 1)
    verified, raw = engine.probe_budget(period, start, allowance)
    if not verified:
        assert engine.last_rounds < allowance, f"undecided at {period}"
        return None
    shift = int(raw[engine.host_idx[0]]) if engine.host_idx.size else 0
    return {v: int(raw[i]) - shift for v, i in engine.index.items()}


def t_min_per_prober(graph):
    """``{prober: T_min}`` for the FEAS search and a bisection over the
    exact candidates on the dense Bellman–Ford checker."""
    wd = wd_matrices(graph)
    checker = FeasibilityChecker.build(graph, wd)
    exact = candidate_periods(wd, tol=0.0)
    first, _labels = minperiod.bisect_feasible(
        0, len(exact), lambda i, _warm: checker.check(exact[i])
    )
    return {"feas": min_period_retiming(graph)[0], "bellman-ford": exact[first]}


def self_loop_graph():
    """A zero-delay unit with a zero-weight self-loop on a 1-FF ring.

    W/D are defined (the loop adds no delay), but FEAS arrival times
    are not, so :meth:`FeasProbe.build` rejects it — as
    :meth:`CircuitGraph.validate` rejects the combinational loop.
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
            got = feas_labels(engine, period)
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
            got = feas_labels(engine, period)
            assert (got is None) == (ref is None), f"period {period}"

    def test_correlator_without_hosts(self):
        g = correlator()
        engine = FeasProbe.build(g)
        assert feas_labels(engine, 13.0) is not None
        assert feas_labels(engine, 12.0) is None

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
        allowance = 8 * (engine.n + 1)
        t_init = clock_period(g, wd)
        verified, warm = engine.probe_budget(t_init, None, allowance)
        assert verified
        for frac in (0.9, 0.75, 0.6, 0.45):
            period = frac * t_init
            cold = feas_labels(engine, period)
            hot = feas_labels(engine, period, start=warm)
            assert (cold is None) == (hot is None), f"period {period}"
            if hot is not None:
                assert clock_period(g.retimed(hot)) <= period + 1e-9
                warm = engine.probe_budget(period, warm, allowance)[1]

    def test_illegal_start_rejected(self):
        g = random_circuit("fw", n_units=20, n_ffs=12, seed=1)
        engine = FeasProbe.build(g)
        bad = np.zeros(engine.n, dtype=np.int64)
        bad[engine.eu[0]] = 5  # pushes that vertex's out-edges negative
        with pytest.raises(ValueError, match="legal"):
            feas_labels(engine, clock_period(g), start=bad)

    def test_wrong_shape_rejected(self):
        g = random_circuit("fw", n_units=20, n_ffs=12, seed=2)
        engine = FeasProbe.build(g)
        with pytest.raises(ValueError, match="shape"):
            feas_labels(engine, clock_period(g), start=np.zeros(3, dtype=np.int64))

    def test_untied_hosts_rejected(self):
        g = random_circuit("fw", n_units=20, n_ffs=12, seed=3)
        engine = FeasProbe.build(g)
        bad = np.zeros(engine.n, dtype=np.int64)
        bad[engine.host_idx[0]] = 1
        with pytest.raises(ValueError, match="hosts"):
            feas_labels(engine, clock_period(g), start=bad)

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
    def test_t_min_independent_of_prober(self, seed):
        g = random_circuit("fm", n_units=30, n_ffs=20, seed=seed)
        results = t_min_per_prober(g)
        assert len(set(results.values())) == 1, results
        _t_min, result = min_period_retiming(g)
        assert clock_period(result.graph) <= results["feas"] + 1e-9

    def test_t_min_equals_linear_scan(self):
        # T_min is the minimum over the *exact* candidate set (tol=0),
        # not just the merged search domain: the exact-tie refinement
        # must land on the same value as an exhaustive scan with the
        # constraint-object oracle.
        g = random_circuit("fm", n_units=25, n_ffs=15, seed=11)
        wd = wd_matrices(g)
        t_min, _ = min_period_retiming(g)
        feasible = [
            t
            for t in candidate_periods(wd, tol=0.0)
            if is_feasible_period(g, t, wd) is not None
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


class TestBudgetResume:
    """A budget too small to verify feasible probes only costs resumes:
    the certify step catches every miss, so ``T_min`` never moves."""

    @staticmethod
    def _search(graph):
        from repro.obs import Tracer

        tracer = Tracer()
        t_min, _ = min_period_retiming(graph, tracer=tracer)
        (search,) = [s for s in tracer.spans if s.name == "min_period/search"]
        probes = [
            s for s in tracer.spans
            if s.name == "feas/probe" and s.parent_id == search.span_id
        ]
        return t_min, search.attrs, probes

    def test_budget_one_keeps_t_min(self, monkeypatch):
        from repro.experiments.fixtures import prepared_instance

        instances = [
            (inst.expanded.graph, inst.t_min)
            for inst in map(prepared_instance, ("s298", "s386"))
        ]
        for seed in range(3):
            g = random_circuit("br", n_units=40, n_ffs=20, seed=seed)
            instances.append((g, min_period_retiming(g)[0]))
        monkeypatch.setattr(minperiod, "_INITIAL_BUDGET", 1)
        resumes = 0
        for g, t_min in instances:
            got, attrs, _probes = self._search(g)
            assert got == t_min
            resumes += attrs["resumes"]
        assert resumes > 0

    def test_search_span_totals_match_probe_spans(self):
        g = random_circuit("br", n_units=40, n_ffs=20, seed=0)
        _, attrs, probes = self._search(g)
        unverified = [p for p in probes if p.attrs["verdict"] == "unverified"]
        assert unverified
        assert attrs["feas_rounds"] == sum(p.attrs["rounds"] for p in probes)
        assert attrs["unverified_rounds"] == sum(
            p.attrs["rounds"] for p in unverified
        )
        assert attrs["unverified_rounds"] <= minperiod._INITIAL_BUDGET * len(
            unverified
        )
        assert attrs["resumes"] == 0
