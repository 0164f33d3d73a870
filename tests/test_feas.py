"""Tests for arrival times and the dense period checker.

The checker is cross-checked against the constraint-object oracle in
``tests/oracles/feasibility.py``: its relaxation kernel label for
label, its witnesses as genuine retimings. Arrival times come from
:func:`repro.verify.timing.unit_arrivals`, the one shipped Δ
recurrence.
"""

import networkx as nx
import numpy as np
import pytest

from repro.netlist import CircuitGraph, random_circuit
from repro.retime import (
    candidate_periods,
    clock_period,
    min_period_retiming,
    normalise_labels,
    wd_matrices,
)
from repro.retime.fastcheck import FeasibilityChecker
from repro.verify.timing import unit_arrivals as arrival_times
from tests.oracles.feasibility import (
    constraint_digraph,
    feasible_labels,
    is_feasible_period,
    period_constraints,
)
from tests.test_wd import correlator


def self_loop_graph():
    """A zero-delay unit with a zero-weight self-loop on a 1-FF ring.

    W/D are defined (the loop adds no delay) and the checker answers
    every period, but no period is meaningful: the compile refuses the
    graph, as :meth:`CircuitGraph.validate` rejects the combinational
    loop.
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


def witness_labels(graph, period):
    """The checker's witness at ``period`` by unit name with the hosts
    at 0 (:func:`normalise_labels`), or ``None`` when infeasible."""
    checker = FeasibilityChecker.build(graph, wd_matrices(graph))
    raw = checker.check(period)
    if raw is None:
        return None
    return normalise_labels(graph, dict(zip(checker.wd.order, raw.tolist())))


class TestArrivalTimes:
    def test_chain(self):
        g = CircuitGraph()
        g.add_unit("a", delay=1.0)
        g.add_unit("b", delay=2.0)
        g.add_unit("c", delay=4.0)
        g.add_connection("a", "b", weight=0)
        g.add_connection("b", "c", weight=1)
        delta = arrival_times(g)
        assert delta == {"a": 1.0, "b": 3.0, "c": 4.0}

    def test_matches_clock_period(self):
        g = correlator()
        assert max(arrival_times(g).values()) == clock_period(g)

    def test_combinational_cycle_raises(self):
        g = CircuitGraph()
        g.add_unit("a", delay=1.0)
        g.add_unit("b", delay=1.0)
        g.add_connection("a", "b", weight=0)
        g.add_connection("b", "a", weight=0)
        with pytest.raises(Exception, match="cycle"):
            arrival_times(g)


class TestFeas:
    """The dense checker's witnesses are genuine retimings (agreement
    with the oracle over the search's probes is in ``test_feas_probe``)."""

    def test_correlator_feasible_at_13(self):
        g = correlator()
        labels = witness_labels(g, 13.0)
        assert labels is not None
        assert clock_period(g.retimed(labels)) <= 13.0

    def test_correlator_infeasible_at_12(self):
        assert witness_labels(correlator(), 12.0) is None

    def test_feasible_implies_reference_feasible(self):
        """Checker feasible => constraint-object oracle feasible (soundness)."""
        for seed in range(3):
            g = random_circuit("f", n_units=30, n_ffs=20, seed=seed)
            wd = wd_matrices(g)
            t_init = clock_period(g, wd)
            for period in [t_init, 0.8 * t_init, 0.6 * t_init]:
                labels = witness_labels(g, period)
                if labels is not None:
                    assert clock_period(g.retimed(labels)) <= period + 1e-9
                    assert is_feasible_period(g, period, wd) is not None

    def test_hosts_pinned_at_zero(self):
        g = random_circuit("f", n_units=25, n_ffs=15, seed=4)
        labels = witness_labels(g, clock_period(g))
        assert labels is not None
        for host in g.host_units():
            assert labels[host] == 0


def oracle_labels(graph, wd, period):
    """The greatest solution <= 0 of the unpruned system, or ``None``."""
    if wd.max_vertex_delay() > period:
        return None
    labels = feasible_labels(period_constraints(graph, wd, period))
    if labels is None:
        return None
    return {v: labels.get(v, 0) for v in graph.units()}


def below_start_labels(graph, wd, period, start):
    """The greatest solution <= ``start`` (indexed like ``wd.order``) of
    the unpruned system, by networkx Bellman–Ford from a virtual source
    whose arc to ``v`` weighs ``start[v]``; ``None`` if infeasible."""
    if wd.max_vertex_delay() > period:
        return None
    g = constraint_digraph(period_constraints(graph, wd, period))
    source = object()
    g.add_weighted_edges_from(
        (source, v, int(start[i])) for v, i in wd.index.items()
    )
    try:
        dist = nx.single_source_bellman_ford_path_length(g, source)
    except nx.NetworkXUnbounded:
        return None
    return np.array([dist[v] for v in wd.order], dtype=np.int64)


def checker_labels(checker, period):
    """The dense checker's cold labels by unit name, or ``None``."""
    dist = checker.check(period)
    if dist is None:
        return None
    return {v: int(dist[i]) for v, i in checker.wd.index.items()}


class TestFastChecker:
    """The checker runs the one relaxation kernel from all-zero labels,
    so its labels are the unique greatest solution <= 0: equal, label
    for label, to the networkx Bellman–Ford oracle on the unpruned
    constraint system."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_reference(self, seed):
        g = random_circuit("fc", n_units=35, n_ffs=25, seed=seed)
        wd = wd_matrices(g)
        checker = FeasibilityChecker.build(g, wd)
        t_init = clock_period(g, wd)
        for frac in [1.0, 0.85, 0.7, 0.55, 0.4]:
            period = frac * t_init
            fast = checker_labels(checker, period)
            assert fast == oracle_labels(g, wd, period), f"period {period}"
            if fast is not None:
                retimed = g.retimed(_normalised(g, fast))
                assert clock_period(retimed) <= period + 1e-9

    def test_self_loop_graph_matches_reference(self):
        g = self_loop_graph()
        wd = wd_matrices(g)
        checker = FeasibilityChecker.build(g, wd)
        verdicts = []
        for period in candidate_periods(wd).tolist() + [0.5, 1.5]:
            fast = checker_labels(checker, period)
            assert fast == oracle_labels(g, wd, period), f"period {period}"
            verdicts.append(fast is not None)
        assert any(verdicts) and not all(verdicts)

    def test_min_period_matches_reference_search(self):
        g = random_circuit("fc", n_units=30, n_ffs=20, seed=9)
        wd = wd_matrices(g)
        t_min, _result = min_period_retiming(g)
        # reference: linear scan over candidates with the oracle
        feasible = [
            t
            for t in candidate_periods(wd)
            if is_feasible_period(g, t, wd) is not None
        ]
        assert t_min == min(feasible)


class TestRefine:
    """Warm-started probes: the verdict never depends on the start, and
    the labels are the greatest solution below it."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_check(self, seed):
        g = random_circuit("rf", n_units=35, n_ffs=25, seed=seed)
        wd = wd_matrices(g)
        checker = FeasibilityChecker.build(g, wd)
        t_init = clock_period(g, wd)
        start = np.zeros(checker.n, dtype=np.int64)
        for frac in [1.0, 0.85, 0.7, 0.55, 0.4]:
            period = frac * t_init
            cold = checker.check(period)
            warm = checker.refine(period, start)
            assert (cold is None) == (warm is None), f"period {period}"
            oracle = below_start_labels(g, wd, period, start)
            assert (warm is None) == (oracle is None), f"period {period}"
            if warm is not None:
                assert np.array_equal(warm, oracle), f"period {period}"
                start = warm  # witness warms the next, tighter probe

    def test_arbitrary_start_is_still_exact(self):
        g = random_circuit("rf", n_units=30, n_ffs=20, seed=7)
        wd = wd_matrices(g)
        checker = FeasibilityChecker.build(g, wd)
        t_init = clock_period(g, wd)
        rng = np.random.default_rng(7)
        for frac in [1.0, 0.7, 0.45]:
            period = frac * t_init
            start = rng.integers(-3, 4, size=checker.n).astype(np.int64)
            warm = checker.refine(period, start)
            ref = is_feasible_period(g, period, wd)
            assert (warm is None) == (ref is None), f"period {period}"
            if warm is not None:
                as_dict = dict(zip(wd.order, (int(x) for x in warm)))
                retimed = g.retimed(_normalised(g, as_dict))
                assert clock_period(retimed) <= period + 1e-9


def _normalised(graph, labels):
    from repro.retime import normalise_labels

    return normalise_labels(graph, {v: labels.get(v, 0) for v in graph.units()})
