"""The shipped route layer against its per-segment reference, and a
pinned digest of the Table-1 routes.

:class:`tests.oracles.router.SegmentRouter` rebuilds every Steiner tree
with the reference one-Prim-per-candidate construction and embeds each
tree edge with its own single-goal Dijkstra. The shipped router builds
each ordered pin list's tree once and runs one multi-goal search per
tree-edge source; both must give the same cells, paths, history and
``usage`` dict, insertion order included (the expansion stage iterates
it).
"""

import hashlib
import json

import pytest

from repro.core.planner import PlannerConfig, plan_interconnect
from repro.experiments.circuits import get_circuit
from repro.experiments.fixtures import prepared_instance
from repro.floorplan.plan import build_floorplan
from repro.partition.multiway import default_block_count, partition_graph
from repro.repeater.insertion import buffer_routed_nets
from repro.route.router import GlobalRouter, nets_from_graph
from repro.tiles.grid import build_tile_grid
from tests.oracles.router import SegmentRouter
from tests.test_router_incremental import GRIDS, grid_of, random_nets


def assert_same_routes(shipped, oracle, routed, expected):
    assert list(routed) == list(expected)
    for name, r in routed.items():
        assert list(r.cells) == list(expected[name].cells), name
        assert r.paths == expected[name].paths, name
    assert list(shipped.usage.items()) == list(oracle.usage.items())
    assert list(shipped.history.items()) == list(oracle.history.items())


class TestAgainstSegmentOracle:
    @pytest.mark.parametrize("rrr_passes", [0, 2])
    @pytest.mark.parametrize("layout", sorted(GRIDS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_nets(self, layout, rrr_passes, seed):
        kinds, cols, rows, n_nets = GRIDS[layout]
        grid = grid_of(kinds, cols, rows, seed)
        nets = random_nets(grid, n_nets, seed)
        shipped, oracle = GlobalRouter(grid), SegmentRouter(grid)
        routed = shipped.route(nets, rrr_passes=rrr_passes)
        expected = oracle.route(nets, rrr_passes=rrr_passes)
        assert_same_routes(shipped, oracle, routed, expected)
        if rrr_passes:
            # Ripped nets re-embed with the memoised tree.
            assert shipped.history
            assert shipped.topology_builds == len(
                {(n.driver_cell, *n.sink_cells.values()) for n in nets}
            )

    def test_s1269_prepared_nets(self):
        inst = prepared_instance("s1269")
        graph = get_circuit("s1269").build()
        nets = nets_from_graph(
            graph, inst.grid, inst.floorplan, jitter_seed=inst.config.seed
        )
        passes = inst.config.rrr_passes
        shipped, oracle = GlobalRouter(inst.grid), SegmentRouter(inst.grid)
        edge_searches = []
        search = oracle._maze_route_fast
        oracle._maze_route_fast = lambda a, b: edge_searches.append(a) or search(a, b)
        routed = shipped.route(nets, rrr_passes=passes)
        expected = oracle.route(nets, rrr_passes=passes)
        assert_same_routes(shipped, oracle, routed, expected)
        # Multi-sink trees share sources, so there are fewer searches
        # than tree edges.
        assert 0 < shipped.maze_searches < len(edge_searches)


def first_routing(name):
    """The physical flow of ``name``'s first planning iteration, up to
    repeater insertion: the router, its routes and the buffered paths."""
    spec = get_circuit(name)
    config = PlannerConfig(**spec.plan_kwargs())
    graph = spec.build()
    hosts = set(graph.host_units())
    n_blocks = config.n_blocks or default_block_count(graph.num_units - len(hosts))
    partition = partition_graph(graph, n_blocks, seed=config.seed)
    plan = build_floorplan(
        graph,
        partition,
        seed=config.seed,
        whitespace=config.whitespace,
        iterations=config.floorplan_iterations,
    )
    grid = build_tile_grid(plan, config.tech)
    nets = nets_from_graph(graph, grid, plan, jitter_seed=config.seed)
    router = GlobalRouter(grid)
    routed = router.route(nets, rrr_passes=config.rrr_passes)
    buffered = buffer_routed_nets(routed, grid, config.tech)
    return router, routed, buffered


def route_digest(name):
    router, routed, buffered = first_routing(name)
    doc = {
        "usage": [[list(c), u] for c, u in router.usage.items()],
        "history": [[list(c), h] for c, h in router.history.items()],
        "paths": {
            n: {s: [list(c) for c in p] for s, p in r.paths.items()}
            for n, r in routed.items()
        },
        "n_repeaters": sum(b.n_repeaters for b in buffered.values()),
    }
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


#: sha256 over each circuit's first-iteration ``usage`` (insertion
#: order), ``history``, per-sink paths and repeater count, recorded
#: with the one-Prim-per-candidate Steiner build and one Dijkstra per
#: tree edge.
ROUTE_DIGESTS = {
    "s298": "7e6a1acdaef9428e32937a1996cfbd89addb399a631abc277c18b9e4ab863c3b",
    "s1269": "4aff974c162235792140a3e1e2f7b1a0d0a0b05391b4287caeeea504027139d8",
    "s5378": "d6195484b065e64d9bbcc95ba62a5ed23ddfa93886637edbc8552eeb465223ea",
}


class TestRouteDigest:
    @pytest.mark.parametrize("name", sorted(ROUTE_DIGESTS))
    def test_table1_routes_unchanged(self, name):
        assert route_digest(name) == ROUTE_DIGESTS[name]

    def test_digest_covers_the_planner_first_iteration(self):
        router, _routed, buffered = first_routing("s298")
        spec = get_circuit("s298")
        first = plan_interconnect(
            spec.build(), PlannerConfig(**spec.plan_kwargs()), max_iterations=1
        ).first
        assert list(first.route_usage.items()) == list(router.usage.items())
        assert first.n_repeaters == sum(b.n_repeaters for b in buffered.values())
