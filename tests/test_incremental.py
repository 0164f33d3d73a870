"""Property tests for the warm-started incremental min-area solver.

The contract under test: every ``IncrementalMinArea.solve`` call is an
exact optimum of the same LP a cold :func:`min_area_retiming` solves —
warm-starting (HiGHS basis reuse, SSP potential carry-over) changes
where the search starts, never what it converges to. Labels may differ
between engines on degenerate optima, so equality is asserted on the
weighted objective value, which the LP guarantees.

The solver picks HiGHS when scipy's bindings load and SSP otherwise;
the SSP cases hide the bindings by monkeypatching ``_load_highs``.
"""

import random

import pytest

from repro.core import lac_retiming
from repro.errors import InfeasiblePeriodError
from repro.netlist.generate import random_circuit
from repro.retime.constraints import build_constraint_system
from repro.retime import incremental
from repro.retime.incremental import IncrementalMinArea, _load_highs
from repro.retime.minarea import min_area_retiming
from repro.retime.minperiod import clock_period, min_period_retiming
from repro.retime.wd import wd_matrices
from tests.oracles.lac_cold import lac_retiming_cold

ENGINES = ["ssp"] + (["highs"] if _load_highs() is not None else [])


def force_engine(monkeypatch, engine: str) -> None:
    """Make the next solver pick ``engine`` (SSP: hide the bindings)."""
    if engine == "ssp":
        monkeypatch.setattr(incremental, "_load_highs", lambda: None)


def prepared(seed: int, n_units: int = 40):
    """A synthetic circuit with its mid-slack constraint system."""
    graph = random_circuit(
        f"inc{seed}", n_units=n_units, n_ffs=10, seed=seed
    )
    wd = wd_matrices(graph)
    t_init = clock_period(graph, wd)
    t_min, _ = min_period_retiming(graph, wd)
    period = t_min + 0.5 * (t_init - t_min)
    system = build_constraint_system(graph, wd, period)
    return graph, wd, period, system


def weight_rounds(graph, seed: int, rounds: int):
    """A deterministic sequence of per-unit weight maps, spanning the
    dynamic range LAC's tile reweighting produces."""
    rng = random.Random(seed)
    units = list(graph.units())
    out = []
    for _ in range(rounds):
        out.append({u: rng.uniform(0.05, 20.0) for u in units})
    return out


class TestObjectiveEquivalence:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_matches_cold_solver_across_rounds(self, engine, seed, monkeypatch):
        graph, wd, period, system = prepared(seed)
        force_engine(monkeypatch, engine)
        inc = IncrementalMinArea(graph, system)
        assert inc.stats.engine == engine
        for weights in weight_rounds(graph, seed, rounds=4):
            warm = inc.solve(weights)
            cold = min_area_retiming(
                graph, period, weights=weights, wd=wd, system=system
            )
            assert inc.objective_value(warm, weights) == inc.objective_value(
                cold.labels, weights
            )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_unweighted_matches_cold_solver(self, engine, monkeypatch):
        graph, wd, period, system = prepared(seed=7)
        force_engine(monkeypatch, engine)
        inc = IncrementalMinArea(graph, system)
        warm = inc.solve()
        cold = min_area_retiming(graph, period, wd=wd, system=system)
        assert inc.objective_value(warm) == inc.objective_value(cold.labels)


class TestWarmStart:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_bellman_ford_runs_once(self, engine, monkeypatch):
        graph, _wd, _period, system = prepared(seed=5)
        force_engine(monkeypatch, engine)
        inc = IncrementalMinArea(graph, system)
        for weights in weight_rounds(graph, 5, rounds=3):
            inc.solve(weights)
        assert inc.stats.bellman_ford_runs == 1
        assert inc.stats.solves == 3
        assert inc.stats.engine == engine

    def test_stats_serialise(self):
        graph, _wd, _period, system = prepared(seed=5)
        inc = IncrementalMinArea(graph, system)
        inc.solve()
        d = inc.stats.to_dict()
        assert d["solves"] == 1
        assert d["engine"] in ("highs", "ssp")
        assert d["build_seconds"] >= 0.0


class TestEngineSelection:
    def test_auto_picks_available_engine(self):
        graph, _wd, _period, system = prepared(seed=5)
        inc = IncrementalMinArea(graph, system)
        expected = "highs" if _load_highs() is not None else "ssp"
        assert inc.engine == expected

    def test_ssp_when_highs_bindings_missing(self, monkeypatch):
        graph, _wd, _period, system = prepared(seed=5)
        monkeypatch.setattr(incremental, "_load_highs", lambda: None)
        inc = IncrementalMinArea(graph, system)
        assert inc.stats.engine == "ssp"
        assert inc.stats.to_dict()["engine"] == "ssp"

    @pytest.mark.skipif(_load_highs() is None, reason="no scipy HiGHS bindings")
    def test_lac_ssp_matches_highs(self, monkeypatch):
        from tests.test_lac import TECH, ring_scenario

        g, unit_region, grid = ring_scenario()
        kwargs = dict(tech=TECH, alpha=0.5, n_max=3, max_rounds=8)
        highs = lac_retiming(g, unit_region, grid, period=10.0, **kwargs)
        monkeypatch.setattr(incremental, "_load_highs", lambda: None)
        ssp = lac_retiming(g, unit_region, grid, period=10.0, **kwargs)
        assert highs.solver_stats["engine"] == "highs"
        assert ssp.solver_stats["engine"] == "ssp"
        assert (ssp.report.n_foa, ssp.report.n_f) == (
            highs.report.n_foa,
            highs.report.n_f,
        )

    def test_infeasible_period_raises_at_construction(self):
        graph, wd, _period, _system = prepared(seed=3)
        t_min, _ = min_period_retiming(graph, wd)
        tight = build_constraint_system(graph, wd, 0.5 * t_min)
        with pytest.raises(InfeasiblePeriodError):
            IncrementalMinArea(graph, tight)


class TestLacEquivalence:
    """The warm-started LAC loop lands on the same quality solution as
    the cold reference loop in ``tests/oracles/lac_cold.py`` (identical
    best ``(N_FOA, N_F)`` key; per-round keys may differ, since the
    weighted optimum of a round can be degenerate)."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_best_key_matches_cold_path(self, engine, monkeypatch):
        from tests.test_lac import TECH, ring_scenario

        g, unit_region, grid = ring_scenario()
        kwargs = dict(tech=TECH, alpha=0.5, n_max=3, max_rounds=8)
        _result, cold_report, _history = lac_retiming_cold(
            g, unit_region, grid, period=10.0, **kwargs
        )
        force_engine(monkeypatch, engine)
        warm = lac_retiming(g, unit_region, grid, period=10.0, **kwargs)
        assert (warm.report.n_foa, warm.report.n_f) == (
            cold_report.n_foa,
            cold_report.n_f,
        )
        assert warm.solver_stats["engine"] == engine
        # One timing per weighted solve.
        assert len(warm.round_seconds) == warm.n_wr
