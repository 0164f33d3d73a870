"""Property tests for the warm-started incremental min-area solver.

The contract under test: every ``IncrementalMinArea.solve`` call is an
exact optimum of the same LP the network-simplex oracle
(``tests/oracles/flow.py``) solves cold — warm-starting (HiGHS basis
reuse) changes where the search starts, never what it converges to. Labels may differ between solvers on degenerate
optima, so equality is asserted on the weighted objective value, which
the LP guarantees. A repeated objective is replayed, not re-solved.

The solver picks HiGHS when scipy's bindings load and cold ``linprog``
solves otherwise; the linprog cases hide the bindings by monkeypatching
``_load_highs``.
"""

import random

import pytest

from repro.core import lac_retiming
from repro.errors import InfeasiblePeriodError
from repro.netlist import graph_from_dict, graph_to_dict
from repro.netlist.generate import random_circuit
from repro.netlist.graph import LOGIC
from repro.retime.constraints import build_constraint_system
from repro.retime import incremental
from repro.retime.incremental import IncrementalMinArea, _load_highs
from repro.retime.minarea import min_area_retiming
from repro.retime.minperiod import min_period_retiming
from repro.retime.wd import clock_period, wd_matrices
from tests.oracles.constraints import objective_value
from tests.oracles.flow import min_area_labels
from tests.oracles.lac_cold import lac_retiming_cold

ENGINES = ["linprog"] + (["highs"] if _load_highs() is not None else [])


def force_engine(monkeypatch, engine: str) -> None:
    """Make the next solver pick ``engine`` (linprog: hide the bindings)."""
    if engine == "linprog":
        monkeypatch.setattr(incremental, "_load_highs", lambda: None)


def prepared(seed: int, n_units: int = 40):
    """A synthetic circuit with its mid-slack constraint system."""
    graph = random_circuit(
        f"inc{seed}", n_units=n_units, n_ffs=10, seed=seed
    )
    wd = wd_matrices(graph)
    t_init = clock_period(graph, wd)
    t_min, _ = min_period_retiming(graph)
    period = t_min + 0.5 * (t_init - t_min)
    system = build_constraint_system(graph, period)
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
        graph, _wd, _period, system = prepared(seed)
        force_engine(monkeypatch, engine)
        inc = IncrementalMinArea(graph, system)
        assert inc.stats.engine == engine
        for weights in weight_rounds(graph, seed, rounds=4):
            warm = inc.solve(weights)
            cold = min_area_labels(graph, system, weights)
            assert objective_value(graph, warm, weights) == objective_value(
                graph, cold, weights
            )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_unweighted_matches_cold_solver(self, engine, monkeypatch):
        graph, _wd, _period, system = prepared(seed=7)
        force_engine(monkeypatch, engine)
        inc = IncrementalMinArea(graph, system)
        warm = inc.solve()
        cold = min_area_labels(graph, system)
        assert objective_value(graph, warm) == objective_value(graph, cold)


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
        assert d["engine"] in ("highs", "linprog")
        assert d["build_seconds"] >= 0.0


class TestReplay:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_repeated_objective_is_replayed(self, engine, monkeypatch):
        graph, _wd, _period, system = prepared(seed=5)
        force_engine(monkeypatch, engine)
        inc = IncrementalMinArea(graph, system)
        uniform = {u: 1.0 for u in graph.units()}
        first = inc.solve(uniform)
        assert (inc.stats.solves, inc.stats.replays) == (1, 0)
        iterations = inc.stats.simplex_iterations
        again = inc.solve(dict(uniform))
        assert again == first and again is not first
        assert (inc.stats.solves, inc.stats.replays) == (1, 1)
        assert inc.stats.simplex_iterations == iterations

    def test_replay_compares_scaled_coefficients(self):
        """Unit weights scale to 10^4 per unit; ``weights=None`` to 1.
        The objectives differ, so the second call solves again."""
        graph, _wd, _period, system = prepared(seed=5)
        inc = IncrementalMinArea(graph, system)
        inc.solve({u: 1.0 for u in graph.units()})
        inc.solve()
        inc.solve({u: 1.0 for u in graph.units()})
        assert (inc.stats.solves, inc.stats.replays) == (3, 0)

    def test_min_area_retiming_shares_the_solver(self):
        graph, _wd, period, system = prepared(seed=5)
        inc = IncrementalMinArea(graph, system)
        weights = {u: 2.0 for u in graph.units()}
        base = min_area_retiming(graph, period, weights=weights, solver=inc)
        assert inc.solve(weights) == base.labels
        assert (inc.stats.solves, inc.stats.replays) == (1, 1)


class TestEngineSelection:
    def test_auto_picks_available_engine(self):
        graph, _wd, _period, system = prepared(seed=5)
        inc = IncrementalMinArea(graph, system)
        expected = "highs" if _load_highs() is not None else "linprog"
        assert inc.engine == expected

    def test_linprog_when_highs_bindings_missing(self, monkeypatch):
        graph, _wd, _period, system = prepared(seed=5)
        monkeypatch.setattr(incremental, "_load_highs", lambda: None)
        inc = IncrementalMinArea(graph, system)
        assert inc.stats.engine == "linprog"
        assert inc.stats.to_dict()["engine"] == "linprog"

    @pytest.mark.skipif(_load_highs() is None, reason="no scipy HiGHS bindings")
    def test_lac_linprog_matches_highs(self, monkeypatch):
        from tests.test_lac import TECH, ring_scenario

        g, unit_region, grid = ring_scenario()
        kwargs = dict(tech=TECH, alpha=0.5, n_max=3, max_rounds=8)
        highs = lac_retiming(g, unit_region, grid, period=10.0, **kwargs)
        monkeypatch.setattr(incremental, "_load_highs", lambda: None)
        cold = lac_retiming(g, unit_region, grid, period=10.0, **kwargs)
        assert highs.solver_stats["engine"] == "highs"
        assert cold.solver_stats["engine"] == "linprog"
        assert (cold.report.n_foa, cold.report.n_f) == (
            highs.report.n_foa,
            highs.report.n_f,
        )

    def test_infeasible_period_raises_at_construction(self, monkeypatch):
        graph, wd, _period, _system = prepared(seed=3)
        t_min, _ = min_period_retiming(graph)
        tight = build_constraint_system(graph, 0.5 * t_min)
        for engine in ENGINES:
            with monkeypatch.context() as patch:
                force_engine(patch, engine)
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


class TestForeignArtifact:
    """The solver reads vertex order, gather arrays and components from
    the constraint system's artifact, so an artifact of another circuit
    must be refused, not used: two seeds of one generator give graphs
    of the same size under the same unit names."""

    @staticmethod
    def _readers(other, compiled, system, period):
        """The five retime entry points, each handed ``other``."""
        from repro.resilience import find_relaxed_period

        return {
            "build_constraint_system": lambda: build_constraint_system(
                other, period, compiled=compiled
            ),
            "IncrementalMinArea": lambda: IncrementalMinArea(other, system),
            "min_area_retiming": lambda: min_area_retiming(
                other, period, compiled=compiled
            ),
            "min_period_retiming": lambda: min_period_retiming(
                other, compiled=compiled
            ),
            "find_relaxed_period": lambda: find_relaxed_period(
                other, 0.5 * period, period, compiled=compiled
            ),
        }

    def _assert_refused(self, mine, other):
        from repro.compile import CompiledCircuit

        compiled = CompiledCircuit.compile(mine)
        period = compiled.t_init
        system = build_constraint_system(mine, period, compiled=compiled)
        for name, call in self._readers(other, compiled, system, period).items():
            with pytest.raises(ValueError, match="does not match"):
                call()
            assert compiled.t_min is None, name

    def test_artifact_of_another_circuit_is_refused(self):
        mine = random_circuit("a", n_units=30, n_ffs=20, seed=1)
        other = random_circuit("a", n_units=30, n_ffs=20, seed=2)
        assert list(mine.units()) == list(other.units())
        self._assert_refused(mine, other)

    @pytest.mark.parametrize("field", ["weight", "delay"])
    def test_artifact_of_a_perturbed_copy_is_refused(self, field):
        """A copy with one connection weight or one unit delay changed
        has the same units and connections, but other W/D, candidates
        and clocking rows: its artifact must be refused too."""
        mine = random_circuit("a", n_units=30, n_ffs=20, seed=1)
        if field == "weight":
            other = mine.copy()
            cid, w = next(iter(other.connections()))
            other.set_weight(cid, w + 1)
        else:
            doc = graph_to_dict(mine)
            next(u for u in doc["units"] if u["kind"] == LOGIC)["delay"] += 0.5
            other = graph_from_dict(doc)
        other.validate()
        self._assert_refused(mine, other)
