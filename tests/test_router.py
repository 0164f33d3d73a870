"""Tests for the global router and repeater insertion."""

import copy
import dataclasses
import random

import pytest

from repro.errors import RoutingError
from repro.floorplan import build_floorplan
from repro.netlist import random_circuit
from repro.partition import partition_graph
from repro.repeater import buffer_routed_nets, insert_repeaters
from repro.route import GlobalRouter, nets_from_graph
from repro.tech import DEFAULT_TECH
from repro.tiles import build_tile_grid
from repro.tiles.grid import CHANNEL, TileGrid
from tests.oracles.repeater import insert_repeaters as reference_insert_repeaters


@pytest.fixture(scope="module")
def routed_setup():
    g = random_circuit("rt", n_units=70, n_ffs=25, seed=21)
    part = partition_graph(g, 6, seed=21)
    plan = build_floorplan(g, part, seed=21, iterations=600)
    grid = build_tile_grid(plan)
    nets = nets_from_graph(g, grid, plan, jitter_seed=21)
    router = GlobalRouter(grid)
    routed = router.route(nets)
    return g, plan, grid, nets, router, routed


class TestNetExtraction:
    def test_only_interblock_nets(self, routed_setup):
        g, plan, _grid, nets, _router, _routed = routed_setup
        for net in nets:
            blocks = {plan.block_of_unit.get(net.driver)} | {
                plan.block_of_unit.get(s) for s in net.sinks
            }
            assert len(blocks) > 1  # at least one sink in another block

    def test_host_edges_excluded(self, routed_setup):
        g, _plan, _grid, nets, _router, _routed = routed_setup
        hosts = set(g.host_units())
        for net in nets:
            assert net.driver not in hosts
            assert not hosts & set(net.sinks)

    def test_pins_inside_chip(self, routed_setup):
        _g, _plan, grid, nets, _router, _routed = routed_setup
        for net in nets:
            for cell in [net.driver_cell, *net.sink_cells.values()]:
                assert 0 <= cell[0] < grid.n_cols
                assert 0 <= cell[1] < grid.n_rows


class TestRouting:
    def test_every_sink_has_path(self, routed_setup):
        _g, _plan, _grid, nets, _router, routed = routed_setup
        for net in nets:
            r = routed[net.name]
            for sink in net.sinks:
                path = r.paths[sink]
                assert path[0] == net.driver_cell
                assert path[-1] == net.sink_cells[sink]

    def test_paths_are_lattice_connected(self, routed_setup):
        _g, _plan, _grid, _nets, _router, routed = routed_setup
        for r in routed.values():
            for path in r.paths.values():
                for a, b in zip(path, path[1:]):
                    assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1

    def test_usage_tracked(self, routed_setup):
        _g, _plan, _grid, _nets, router, routed = routed_setup
        assert router.usage
        assert router.congestion_summary()["used_cells"] > 0

    def test_rrr_reduces_or_keeps_overflow(self):
        g = random_circuit("rr", n_units=60, n_ffs=20, seed=22)
        part = partition_graph(g, 5, seed=22)
        plan = build_floorplan(g, part, seed=22, iterations=500)
        grid = build_tile_grid(plan)
        nets = nets_from_graph(g, grid, plan, jitter_seed=22)
        r0 = GlobalRouter(grid)
        r0.route(nets, rrr_passes=0)
        over0 = len(r0.overflowed_cells())
        r2 = GlobalRouter(grid)
        r2.route(nets, rrr_passes=3)
        assert len(r2.overflowed_cells()) <= over0


class TestRepeaterInsertion:
    def test_segments_respect_lmax(self, routed_setup):
        _g, _plan, grid, _nets, _router, routed = routed_setup
        tech = DEFAULT_TECH
        buffered = buffer_routed_nets(routed, grid, tech)
        lmax_mm = tech.l_max_tiles * grid.tile_size
        for conn in buffered.values():
            for seg in conn.segments:
                assert seg.length_mm <= lmax_mm + 1e-9

    def test_segments_cover_path(self, routed_setup):
        _g, _plan, grid, _nets, _router, routed = routed_setup
        buffered = buffer_routed_nets(routed, grid, DEFAULT_TECH)
        for conn in buffered.values():
            total = (len(conn.path) - 1) * grid.tile_size
            assert conn.length_mm == pytest.approx(total)
            if conn.segments:
                assert conn.segments[0].start_cell == conn.path[0]
                assert conn.segments[-1].end_cell == conn.path[-1]

    def test_first_segment_not_a_repeater(self, routed_setup):
        _g, _plan, grid, _nets, _router, routed = routed_setup
        buffered = buffer_routed_nets(routed, grid, DEFAULT_TECH)
        for conn in buffered.values():
            if conn.segments:
                assert not conn.segments[0].driven_by_repeater

    def test_repeater_area_reserved(self):
        g = random_circuit("ra", n_units=60, n_ffs=20, seed=23)
        part = partition_graph(g, 5, seed=23)
        plan = build_floorplan(g, part, seed=23, iterations=500)
        grid = build_tile_grid(plan)
        nets = nets_from_graph(g, grid, plan, jitter_seed=23)
        routed = GlobalRouter(grid).route(nets)
        assert sum(grid.used.values()) == 0.0
        buffered = buffer_routed_nets(routed, grid, DEFAULT_TECH)
        n_repeaters = sum(c.n_repeaters for c in buffered.values())
        expected = n_repeaters * DEFAULT_TECH.repeater_area
        assert sum(grid.used.values()) == pytest.approx(expected)

    def test_single_cell_path(self, routed_setup):
        _g, _plan, grid, _nets, _router, _routed = routed_setup
        conn = insert_repeaters([(0, 0)], grid, DEFAULT_TECH)
        assert conn.total_delay == 0.0
        assert conn.n_repeaters == 0

    def test_empty_path_rejected(self, routed_setup):
        _g, _plan, grid, _nets, _router, _routed = routed_setup
        with pytest.raises(RoutingError):
            insert_repeaters([], grid, DEFAULT_TECH)

    def test_delay_monotone_in_length(self, routed_setup):
        _g, _plan, grid, _nets, _router, _routed = routed_setup
        path5 = [(i, 0) for i in range(5)]
        path10 = [(i, 0) for i in range(min(10, grid.n_cols))]
        c5 = insert_repeaters(path5, grid, DEFAULT_TECH, reserve=False)
        c10 = insert_repeaters(path10, grid, DEFAULT_TECH, reserve=False)
        assert c10.total_delay > c5.total_delay


class TestRepeaterDPAgainstReference:
    """The DP with tabulated span delays and a per-cell penalty against
    the one that re-derives both per span (tests/oracles/repeater.py)."""

    @staticmethod
    def tight_grid(seed):
        """A 9 x 7 grid of one-cell regions, a third of them full."""
        rng = random.Random(seed)
        cells = [(c, r) for c in range(9) for r in range(7)]
        region_of_cell = {cell: f"t{cell}" for cell in cells}
        capacity = {t: 2.0 for t in region_of_cell.values()}
        used = {
            t: rng.choice([0.0, 0.0, 1.0, 1.75, 2.0]) for t in region_of_cell.values()
        }
        return TileGrid(
            n_cols=9,
            n_rows=7,
            tile_size=rng.choice([1.0, 2.5, 4.0]),
            region_of_cell=region_of_cell,
            kind={t: CHANNEL for t in region_of_cell.values()},
            capacity=capacity,
            used=used,
            block_region={},
        )

    @staticmethod
    def random_path(grid, rng):
        path = [(rng.randrange(grid.n_cols), rng.randrange(grid.n_rows))]
        for _ in range(rng.randrange(40)):
            c, r = path[-1]
            dc, dr = rng.choice([(1, 0), (-1, 0), (0, 1), (0, -1)])
            path.append(
                (min(grid.n_cols - 1, max(0, c + dc)), min(grid.n_rows - 1, max(0, r + dr)))
            )
        return path

    @pytest.mark.parametrize("slew_budget", [0.2, 1.0, 4.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_same_segments_and_reservations(self, seed, slew_budget):
        rng = random.Random(seed)
        tech = dataclasses.replace(DEFAULT_TECH, slew_budget=slew_budget)
        shipped_grid = self.tight_grid(seed)
        oracle_grid = copy.deepcopy(shipped_grid)
        penalised = 0
        for k in range(30):
            path = self.random_path(shipped_grid, rng)
            shipped = insert_repeaters(path, shipped_grid, tech, sink=f"v{k}")
            expected = reference_insert_repeaters(path, oracle_grid, tech, sink=f"v{k}")
            assert shipped == expected
            assert shipped_grid.used == oracle_grid.used
            penalised += any(
                shipped_grid.remaining(shipped_grid.region_of_cell[c])
                < tech.repeater_area
                for c in path[1:-1]
            )
        # The full-tile penalty really is in play.
        assert penalised
