"""Integration tests for the end-to-end interconnect planner.

These exercise the whole flow (Fig. 1) on a small synthetic circuit —
slow-ish (a few seconds) but they pin the paper's qualitative claims:
LAC never does worse than min-area on violations, timing targets are
honoured, and flip-flop placement follows the fanin-tile convention.
"""

import re

import pytest

from repro.compile import CompileCache
from repro.core import (
    PlannerConfig,
    commit_flip_flop_area,
    place_flip_flops,
    plan_interconnect,
)
from repro.netlist import random_circuit
from repro.resilience import ResilienceConfig, StageRunner
from repro.retime import clock_period
from tests.test_retiming import assert_legal_retiming


@pytest.fixture(scope="module")
def outcome():
    g = random_circuit("it", n_units=90, n_ffs=22, seed=77)
    return plan_interconnect(
        g, seed=77, max_iterations=2, floorplan_iterations=800
    )


class TestFlow:
    def test_periods_ordered(self, outcome):
        it = outcome.first
        assert it.t_min <= it.t_clk <= it.t_init + 1e-9

    def test_t_clk_at_20_percent(self, outcome):
        it = outcome.first
        expected = it.t_min + 0.2 * (it.t_init - it.t_min)
        assert it.t_clk == pytest.approx(expected)

    def test_both_retimings_meet_period(self, outcome):
        it = outcome.first
        assert clock_period(it.min_area.result.graph) <= it.t_clk + 1e-9
        assert clock_period(it.lac.retiming.graph) <= it.t_clk + 1e-9

    def test_retimings_verify(self, outcome):
        it = outcome.first
        assert_legal_retiming(
            it.expanded.graph, it.lac.retiming.labels, period=it.t_clk
        )
        assert_legal_retiming(
            it.expanded.graph, it.min_area.result.labels, period=it.t_clk
        )

    def test_lac_not_worse_than_min_area(self, outcome):
        it = outcome.first
        assert it.lac.report.n_foa <= it.min_area.report.n_foa

    def test_min_area_is_flip_flop_lower_bound(self, outcome):
        """LAC trades area for locality: N_F(LAC) >= N_F(min-area)."""
        it = outcome.first
        assert it.lac.report.n_f >= it.min_area.report.n_f

    def test_report_mentions_decrease(self, outcome):
        text = outcome.report()
        assert "N_FOA decrease" in text
        assert re.search(r"iteration 1", text)

    def test_iterations_share_t_clk(self, outcome):
        if len(outcome.iterations) > 1:
            assert outcome.iterations[1].t_clk == outcome.first.t_clk

    def test_foa_decrease_bounds(self, outcome):
        dec = outcome.foa_decrease()
        assert dec is None or dec <= 1.0


class TestFlipFlopPlacement:
    def test_placement_covers_all_ffs(self, outcome):
        it = outcome.first
        placed = place_flip_flops(
            it.lac.retiming.graph,
            it.expanded.unit_region,
            it.grid,
            it.floorplan,
            jitter_seed=outcome.config.seed,
        )
        assert len(placed) == it.lac.report.n_f

    def test_commit_matches_n_foa(self, outcome):
        it = outcome.first
        placed = place_flip_flops(
            it.lac.retiming.graph,
            it.expanded.unit_region,
            it.grid,
            it.floorplan,
            jitter_seed=outcome.config.seed,
        )
        snapshot = it.grid.snapshot_usage()
        misfits = commit_flip_flop_area(placed, it.grid, outcome.config.tech)
        it.grid.restore_usage(snapshot)
        assert misfits == it.lac.report.n_foa


class TestConfig:
    def test_overrides_apply(self):
        g = random_circuit("cfg", n_units=40, n_ffs=12, seed=5)
        out = plan_interconnect(
            g,
            seed=5,
            alpha=0.3,
            max_iterations=1,
            floorplan_iterations=300,
            run_baseline=False,
        )
        assert out.config.alpha == 0.3
        assert out.first.min_area is None
        assert out.foa_decrease() is None

    def test_config_object_used(self):
        g = random_circuit("cfg2", n_units=40, n_ffs=12, seed=6)
        cfg = PlannerConfig(seed=6, floorplan_iterations=300, n_blocks=4)
        out = plan_interconnect(g, cfg, max_iterations=1)
        assert out.first.partition.n_blocks == 4


class TestValidation:
    def test_validate_iteration_passes(self, outcome):
        from repro.verify import verify_iteration

        certs = verify_iteration(outcome.first, outcome.config.tech)
        assert len(certs) >= 6
        assert all(c.ok for c in certs), [c.label for c in certs if not c.ok]

    def test_validate_detects_tampering(self, outcome):
        import copy

        from repro.verify import verify_iteration

        tampered = copy.copy(outcome.first)
        tampered_report = copy.copy(tampered.lac.report)
        tampered_report.n_f += 1
        tampered_lac = copy.copy(tampered.lac)
        tampered_lac.report = tampered_report
        tampered.lac = tampered_lac
        certs = verify_iteration(tampered, outcome.config.tech)
        assert not all(c.ok for c in certs)


class TestHardBlocks:
    def test_flow_with_hard_blocks(self):
        """Hard blocks only offer pre-located sites (paper ref [1]):
        the flow must run and charge almost nothing to hard tiles."""
        from repro.tiles.grid import HARD

        g = random_circuit("hb", n_units=70, n_ffs=18, seed=21)
        out = plan_interconnect(
            g,
            seed=21,
            max_iterations=1,
            n_blocks=5,
            hard_blocks=(0, 1),
            floorplan_iterations=600,
        )
        it = out.first
        grid = it.grid
        hard_regions = {t for t, k in grid.kind.items() if k == HARD}
        assert hard_regions  # the hard blocks produced hard tiles
        hard_caps = sum(grid.capacity[t] for t in hard_regions)
        soft_caps = sum(
            grid.capacity[t] for t, k in grid.kind.items() if k == "soft"
        )
        assert hard_caps < 0.2 * soft_caps  # sites are scarce
        # LAC keeps hard tiles within their site capacity wherever it
        # can (violations, if any, concentrate in soft/channel regions).
        lac_hard_violations = sum(
            v
            for t, v in it.lac.report.violations.items()
            if t in hard_regions
        )
        assert lac_hard_violations <= it.lac.report.n_foa
        assert it.lac.report.n_foa <= it.min_area.report.n_foa


class TestConfigValidation:
    """plan_interconnect rejects bad configs up front, naming the field."""

    @pytest.fixture(scope="class")
    def graph(self):
        return random_circuit("val", n_units=30, n_ffs=10, seed=3)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("whitespace", -0.1),
            ("expansion_factor", 1.0),
            ("expansion_factor", 0.5),
            ("target_fraction", -0.01),
            ("target_fraction", 1.5),
            ("n_max", 0),
            ("max_rounds", 0),
        ],
    )
    def test_bad_field_named_in_error(self, graph, field, value):
        from repro.errors import PlanningError

        with pytest.raises(PlanningError, match=field):
            plan_interconnect(graph, max_iterations=1, **{field: value})

    def test_validate_function_accepts_defaults(self):
        from repro.core import validate_planner_config

        validate_planner_config(PlannerConfig())

    def test_lac_rejects_nonpositive_rounds(self, outcome):
        """lac_retiming itself raises ValueError, not a bare assert."""
        from repro.core import lac_retiming

        it = outcome.first
        with pytest.raises(ValueError, match="max_rounds"):
            lac_retiming(
                it.expanded.graph,
                it.expanded.unit_region,
                it.grid,
                it.t_clk,
                max_rounds=0,
            )
        with pytest.raises(ValueError, match="n_max"):
            lac_retiming(
                it.expanded.graph,
                it.expanded.unit_region,
                it.grid,
                it.t_clk,
                n_max=0,
            )


class TestErrorPaths:
    """Error paths the seed left untested (robustness satellite)."""

    def test_converged_false_on_infeasible_final_iteration(self):
        from repro.core.planner import PlanningIteration, PlanningOutcome

        def iteration(index, infeasible):
            return PlanningIteration(
                index=index,
                partition=None,
                floorplan=None,
                grid=None,
                expanded=None,
                t_init=2.0,
                t_min=1.0,
                t_clk=1.2,
                min_area=None,
                lac=None,
                lac_seconds=0.0,
                infeasible=infeasible,
            )

        outcome = PlanningOutcome(
            circuit="x",
            config=PlannerConfig(),
            iterations=[iteration(1, False), iteration(2, True)],
        )
        assert outcome.converged is False
        assert "infeasible" in outcome.report()

    def test_congested_blocks_all_near_hard_blocks(self):
        """Channel violations whose nearest block is hard expand
        nothing — the planner then stops iterating."""
        from types import SimpleNamespace

        from repro.core.planner import _congested_blocks

        grid = SimpleNamespace(
            kind={"ch_0": "channel"},
            region_of_cell={(0, 0): "ch_0"},
            center_of_cell=lambda cell: (0.0, 0.0),
        )
        plan = SimpleNamespace(
            placements={
                "b0": SimpleNamespace(name="b0", center=(1.0, 1.0)),
            },
            blocks={"b0": SimpleNamespace(hard=True)},
        )
        report = SimpleNamespace(violating_regions=lambda: ["ch_0"])
        iteration = SimpleNamespace(
            grid=grid,
            floorplan=plan,
            lac=SimpleNamespace(report=report),
        )
        assert _congested_blocks(iteration) == []

    def test_congested_blocks_without_lac(self):
        from types import SimpleNamespace

        from repro.core.planner import _congested_blocks

        iteration = SimpleNamespace(grid=None, floorplan=None, lac=None)
        assert _congested_blocks(iteration) == []

    def test_infeasible_period_propagates_through_run_iteration(self):
        """An InfeasiblePeriodError inside the retime stage is captured
        on the iteration (strict mode), never raised to the caller."""
        from repro.core.planner import _run_iteration
        from repro.errors import InfeasiblePeriodError

        g = random_circuit("prop", n_units=40, n_ffs=12, seed=9)
        probe = plan_interconnect(
            g, seed=9, max_iterations=1, floorplan_iterations=300
        )
        it = _run_iteration(
            g,
            probe.first.partition,
            probe.first.floorplan,
            probe.config,
            index=2,
            t_clk=1e-6,
            runner=StageRunner(ResilienceConfig(degrade_t_clk=False)),
            cache=CompileCache(),
        )
        assert it.infeasible and not it.degraded
        assert it.lac is None and it.min_area is None
        # ... and lac_retiming itself does raise when called directly.
        from repro.core import lac_retiming

        first = probe.first
        with pytest.raises(InfeasiblePeriodError):
            lac_retiming(
                first.expanded.graph,
                first.expanded.unit_region,
                first.grid,
                1e-6,
            )


class TestInfeasibleIteration:
    def test_absurd_t_clk_marks_iteration_infeasible(self):
        """The paper's s1269 failure mode: a fixed T_clk can become
        infeasible on a revised floorplan; the planner records it
        instead of raising."""
        from repro.core.planner import _run_iteration

        g = random_circuit("inf", n_units=50, n_ffs=14, seed=31)
        probe = plan_interconnect(
            g, seed=31, max_iterations=1, floorplan_iterations=400
        )
        it = _run_iteration(
            g,
            probe.first.partition,
            probe.first.floorplan,
            probe.config,
            index=2,
            t_clk=0.01,  # below any gate delay
            runner=StageRunner(ResilienceConfig(degrade_t_clk=False)),
            cache=CompileCache(),
        )
        assert it.infeasible
        assert it.lac is None
