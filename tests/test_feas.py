"""Tests for arrival times, the FEAS engine and the dense checker.

The period checkers are cross-checked against the constraint-object
oracle in ``tests/oracles/feasibility.py``. Arrival times come from
:func:`repro.verify.timing.unit_arrivals`, the one shipped Δ
recurrence.
"""

import numpy as np
import pytest

from repro.netlist import CircuitGraph, random_circuit
from repro.retime import FeasProbe, clock_period, min_period_retiming, wd_matrices
from repro.retime.fastcheck import FeasibilityChecker
from repro.verify.timing import unit_arrivals as arrival_times
from tests.oracles.feasibility import is_feasible_period
from tests.test_wd import correlator


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
    """The sparse FEAS engine's witnesses (agreement with the oracle
    over whole candidate sets is in ``test_feas_probe``)."""

    def test_correlator_feasible_at_13(self):
        g = correlator()
        labels = FeasProbe.build(g).labels(13.0)
        assert labels is not None
        assert clock_period(g.retimed(labels)) <= 13.0

    def test_correlator_infeasible_at_12(self):
        assert FeasProbe.build(correlator()).labels(12.0) is None

    def test_feasible_implies_reference_feasible(self):
        """FEAS feasible => constraint-object oracle feasible (soundness)."""
        for seed in range(3):
            g = random_circuit("f", n_units=30, n_ffs=20, seed=seed)
            wd = wd_matrices(g)
            engine = FeasProbe.build(g)
            t_init = clock_period(g, wd)
            for period in [t_init, 0.8 * t_init, 0.6 * t_init]:
                labels = engine.labels(period)
                if labels is not None:
                    assert clock_period(g.retimed(labels)) <= period + 1e-9
                    assert is_feasible_period(g, period, wd) is not None

    def test_hosts_pinned_at_zero(self):
        g = random_circuit("f", n_units=25, n_ffs=15, seed=4)
        labels = FeasProbe.build(g).labels(clock_period(g))
        assert labels is not None
        for host in g.host_units():
            assert labels[host] == 0


class TestFastChecker:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_reference(self, seed):
        g = random_circuit("fc", n_units=35, n_ffs=25, seed=seed)
        wd = wd_matrices(g)
        checker = FeasibilityChecker.build(g, wd)
        t_init = clock_period(g, wd)
        for frac in [1.0, 0.85, 0.7, 0.55, 0.4]:
            period = frac * t_init
            fast = checker.labels(period)
            ref = is_feasible_period(g, period, wd)
            assert (fast is None) == (ref is None), f"period {period}"
            if fast is not None:
                # fast labels must be a genuine solution
                retimed = g.retimed(
                    _normalised(g, fast)
                )
                assert clock_period(retimed) <= period + 1e-9

    def test_min_period_matches_reference_search(self):
        g = random_circuit("fc", n_units=30, n_ffs=20, seed=9)
        wd = wd_matrices(g)
        t_min, _result = min_period_retiming(g, wd)
        # reference: linear scan over candidates with the oracle
        from repro.retime import candidate_periods

        feasible = [
            t
            for t in candidate_periods(wd, tol=0.0)
            if is_feasible_period(g, t, wd) is not None
        ]
        assert t_min == min(feasible)


class TestRefine:
    """Warm-started exact probes agree with the from-scratch checker."""

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
            if warm is not None:
                as_dict = dict(zip(wd.order, (int(x) for x in warm)))
                retimed = g.retimed(_normalised(g, as_dict))
                assert clock_period(retimed) <= period + 1e-9
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
            cold = checker.check(period)
            warm = checker.refine(period, start)
            assert (cold is None) == (warm is None), f"period {period}"
            if warm is not None:
                as_dict = dict(zip(wd.order, (int(x) for x in warm)))
                retimed = g.retimed(_normalised(g, as_dict))
                assert clock_period(retimed) <= period + 1e-9


def _normalised(graph, labels):
    from repro.retime import normalise_labels

    return normalise_labels(graph, {v: labels.get(v, 0) for v in graph.units()})
