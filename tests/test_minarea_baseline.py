"""The min-area baseline is LAC-retiming's first round, solved once.

The planner builds one :class:`IncrementalMinArea` per retime. The
baseline solves it with LAC's round-1 weights (1.0 for every unit), and
LAC's round 1 replays that solve instead of solving again. These tests
pin that on real Table-1 instances: the baseline is LAC's
``history[0]``; sharing the solver changes nothing LAC reports; the
replay costs no simplex iterations; and the baseline's flip-flop count
is the network-simplex oracle's.
"""

import pytest

from repro.core import area_report, lac_retiming
from repro.experiments.fixtures import prepared_instance
from repro.retime.incremental import IncrementalMinArea
from repro.retime.minarea import min_area_retiming
from tests.oracles.flow import min_area_labels


class RecordingSolver(IncrementalMinArea):
    """Keeps every ``solve`` result and the simplex count after it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = []

    def solve(self, weights=None):
        labels = super().solve(weights)
        self.calls.append((labels, self.stats.simplex_iterations))
        return labels


def _lac(inst, solver):
    config = inst.config
    return lac_retiming(
        inst.expanded.graph,
        inst.expanded.unit_region,
        inst.grid,
        inst.t_clk,
        tech=config.tech,
        alpha=config.alpha,
        n_max=config.n_max,
        max_rounds=config.max_rounds,
        solver=solver,
    )


@pytest.fixture(scope="module", params=["s298", "s386", "s526"])
def shared(request):
    inst = prepared_instance(request.param)
    graph = inst.expanded.graph
    solver = RecordingSolver(graph, inst.system)
    base = min_area_retiming(
        graph,
        inst.t_clk,
        weights=dict.fromkeys(inst.expanded.unit_region, 1.0),
        solver=solver,
    )
    report = area_report(base.graph, inst.expanded.unit_region, inst.grid, inst.config.tech)
    lac = _lac(inst, solver)
    return inst, solver, base, report, lac


class TestSharedSolver:
    def test_baseline_is_lacs_first_round(self, shared):
        _inst, solver, base, report, lac = shared
        assert (report.n_foa, report.n_f) == lac.history[0]
        # calls[0] is the baseline, calls[1] LAC's round 1.
        assert solver.calls[1][0] == base.labels

    def test_lac_unchanged_by_sharing(self, shared):
        inst, solver, _base, _report, lac = shared
        own = RecordingSolver(inst.expanded.graph, inst.system)
        alone = _lac(inst, own)
        assert alone.history == lac.history
        assert alone.retiming.labels == lac.retiming.labels
        assert alone.n_wr == lac.n_wr
        assert [labels for labels, _ in own.calls] == [
            labels for labels, _ in solver.calls[1:]
        ]

    def test_replay_is_free(self, shared):
        _inst, solver, _base, _report, lac = shared
        assert solver.calls[1][1] == solver.calls[0][1]
        assert solver.stats.replays == 1
        assert solver.stats.solves == lac.n_wr
        assert solver.stats.bellman_ford_runs == 1

    def test_baseline_n_f_matches_network_simplex(self, shared):
        inst, _solver, base, report, _lac = shared
        graph = inst.expanded.graph
        oracle = graph.retimed(min_area_labels(graph, inst.system))
        oracle_report = area_report(
            oracle, inst.expanded.unit_region, inst.grid, inst.config.tech
        )
        assert oracle_report.n_f == report.n_f
        assert oracle.total_flip_flops() == base.total_ffs
