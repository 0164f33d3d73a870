"""The router's incremental cost updates against a full re-sync per net.

:class:`tests.oracles.router.ResyncRouter` rebuilds the cost array from
``usage``/``history`` before every net; the shipped router re-prices
only the cells a commit or history bump touches. On the same nets both
must produce identical routes, usage and history, including through
rip-up & re-route passes on congested grids.
"""

import random

import pytest

from repro.experiments.circuits import get_circuit
from repro.experiments.fixtures import prepared_instance
from repro.route.router import GlobalRouter, Net, nets_from_graph
from repro.tiles.grid import CHANNEL, HARD, SOFT, TileGrid
from tests.oracles.router import ResyncRouter


def grid_of(kinds, cols, rows, seed):
    """A ``cols`` x ``rows`` grid, each cell a region of a random kind."""
    rng = random.Random(seed)
    region_of_cell = {(c, r): f"t_{c}_{r}" for c in range(cols) for r in range(rows)}
    kind = {t: rng.choice(kinds) for t in region_of_cell.values()}
    return TileGrid(
        n_cols=cols,
        n_rows=rows,
        tile_size=1.0,
        region_of_cell=region_of_cell,
        kind=kind,
        capacity={t: 10.0 for t in kind},
        used={t: 0.0 for t in kind},
        block_region={},
    )


def random_nets(grid, n_nets, seed, prefix="n"):
    rng = random.Random(seed)

    def cell():
        return (rng.randrange(grid.n_cols), rng.randrange(grid.n_rows))

    nets = []
    for i in range(n_nets):
        sinks = [f"{prefix}{i}_s{k}" for k in range(rng.randint(1, 3))]
        nets.append(
            Net(
                name=f"{prefix}{i}",
                driver=f"{prefix}{i}_d",
                sinks=sinks,
                driver_cell=cell(),
                sink_cells={s: cell() for s in sinks},
            )
        )
    return nets


def assert_same(shipped, oracle, routed, expected):
    assert routed.keys() == expected.keys()
    for name, r in routed.items():
        assert r.cells == expected[name].cells, name
        assert r.paths == expected[name].paths, name
    assert shipped.usage == oracle.usage
    assert shipped.history == oracle.history


def assert_costs_in_sync(router):
    cost = list(router._cost)
    router._sync_costs()
    assert router._cost == cost


GRIDS = {
    "open": ([CHANNEL], 7, 5, 90),
    "mixed": ([CHANNEL, SOFT, HARD], 8, 6, 60),
}


class TestAgainstResyncOracle:
    @pytest.mark.parametrize("rrr_passes", [0, 1, 2, 3])
    @pytest.mark.parametrize("layout", sorted(GRIDS))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_nets(self, layout, rrr_passes, seed):
        kinds, cols, rows, n_nets = GRIDS[layout]
        grid = grid_of(kinds, cols, rows, seed)
        nets = random_nets(grid, n_nets, seed)
        shipped, oracle = GlobalRouter(grid), ResyncRouter(grid)
        routed = shipped.route(nets, rrr_passes=rrr_passes)
        expected = oracle.route(nets, rrr_passes=rrr_passes)
        assert_same(shipped, oracle, routed, expected)
        assert_costs_in_sync(shipped)
        # The nets overflow the grid, so rip-up & re-route really runs.
        first_pass = GlobalRouter(grid)
        first_pass.route(nets, rrr_passes=0)
        assert first_pass.overflowed_cells()
        if rrr_passes:
            assert shipped.history

    def test_s1269_prepared_nets(self):
        inst = prepared_instance("s1269")
        graph = get_circuit("s1269").build()
        nets = nets_from_graph(
            graph, inst.grid, inst.floorplan, jitter_seed=inst.config.seed
        )
        passes = inst.config.rrr_passes
        shipped, oracle = GlobalRouter(inst.grid), ResyncRouter(inst.grid)
        routed = shipped.route(nets, rrr_passes=passes)
        expected = oracle.route(nets, rrr_passes=passes)
        assert_same(shipped, oracle, routed, expected)
        assert_costs_in_sync(shipped)
        assert shipped.cost_refreshes > 0


class TestDirectEdits:
    def test_history_edit_between_routes_is_honoured(self):
        grid = grid_of([CHANNEL], 8, 6, seed=3)
        first = random_nets(grid, 30, seed=3, prefix="a")
        second = random_nets(grid, 30, seed=4, prefix="b")
        shipped, oracle, unedited = (
            GlobalRouter(grid, history_weight=10.0),
            ResyncRouter(grid, history_weight=10.0),
            GlobalRouter(grid, history_weight=10.0),
        )
        for router in (shipped, oracle, unedited):
            router.route(first, rrr_passes=1)
        hot = sorted(shipped.usage, key=lambda c: (-shipped.usage[c], c))[:8]
        for router in (shipped, oracle):
            for cell in hot:
                router.history[cell] = router.history.get(cell, 0.0) + 5.0
        routed = shipped.route(second, rrr_passes=1)
        expected = oracle.route(second, rrr_passes=1)
        assert_same(shipped, oracle, routed, expected)
        assert_costs_in_sync(shipped)
        # The edit changed where the second batch went.
        baseline = unedited.route(second, rrr_passes=1)
        assert any(routed[n].cells != baseline[n].cells for n in routed)

    def test_commit_reprices_only_touched_cells(self):
        grid = grid_of([CHANNEL], 8, 6, seed=5)
        (net,) = random_nets(grid, 1, seed=5)
        router = GlobalRouter(grid)
        router.route([net], rrr_passes=0)
        assert router.cost_refreshes == len(router.usage)
