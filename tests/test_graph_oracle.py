"""``CircuitGraph``'s flat storage against the networkx reference.

Seeded random multigraphs — hosts added part-way, parallel connections,
self-loops, connections added out of unit order — are built twice, as a
:class:`repro.netlist.CircuitGraph` and as the networkx-backed
:class:`tests.oracles.graph.NxCircuitGraph`, and every observable is
compared: unit and connection order, keys, neighbour order, degrees,
hosts, weakly connected components, and the same for copies, retimings
and relabelings.
"""

import copy
import pickle
import random

import pytest

from repro.errors import NetlistError
from repro.netlist import CircuitGraph, graph_from_dict, graph_to_dict, relabeled
from repro.netlist.graph import HOST_KIND, INTERCONNECT, LOGIC
from tests.oracles.graph import NxCircuitGraph

SEEDS = range(12)


def build(seed: int, zero_cycle: bool = False):
    """The same random graph as ``(CircuitGraph, NxCircuitGraph)``.

    Zero-weight connections only go forward in a random unit rank, so
    the graph has no combinational loop unless ``zero_cycle`` closes
    one.
    """
    rng = random.Random(seed)
    graphs = (CircuitGraph(f"g{seed}"), NxCircuitGraph(f"g{seed}"))
    n = rng.randint(3, 24)
    names = [f"u{rng.randrange(1000)}_{i}" for i in range(n)]
    rng.shuffle(names)
    rank = {}
    added = []

    def add_unit(name):
        delay, area = rng.choice([0.0, 0.5, 1.0, 2.25]), rng.choice([0.0, 1.0, 16.0])
        kind = rng.choice([LOGIC, LOGIC, INTERCONNECT])
        for g in graphs:
            g.add_unit(name, delay=delay, area=area, kind=kind)
        rank[name] = rng.random()
        added.append(name)

    def connect(u, v, w):
        ids = [g.add_connection(u, v, weight=w) for g in graphs]
        assert ids[0] == ids[1]

    host_at = rng.randrange(n + 1)
    for i, name in enumerate(names):
        if i == host_at:
            for g in graphs:
                g.ensure_hosts()
            for host in graphs[0].host_units():
                rank[host] = -1.0 if host.startswith("__src") else 2.0
                added.append(host)
        add_unit(name)
        # Connect the new unit with earlier ones, in a random direction,
        # so sources are reached out of unit order.
        for _ in range(rng.randint(0, 4)):
            other = rng.choice(added)
            u, v = (name, other) if rng.random() < 0.5 else (other, name)
            if u.startswith("__snk") or v.startswith("__src"):
                continue
            forward = u != v and rank[u] < rank[v]
            for _ in range(rng.choice([1, 1, 1, 2, 3])):  # parallel ones
                connect(u, v, rng.randint(0 if forward else 1, 3))
    if zero_cycle:
        u, v = rng.sample(names, 2)
        connect(u, v, 0)
        connect(v, u, 0)
    return graphs


def observe(g) -> dict:
    """Everything a reader can see of a graph, in its own order."""
    units = list(g.units())
    return {
        "units": units,
        "attrs": [(g.delay(x), g.area(x), g.kind(x)) for x in units],
        "types": {type(w) for _cid, w in g.connections()}
        | {type(g.delay(x)) for x in units},
        "connections": list(g.connections()),
        "weights": [g.weight(cid) for cid, _w in g.connections()],
        "fanin": [g.fanin(x) for x in units],
        "fanout": [g.fanout(x) for x in units],
        "in": [list(g.in_connections(x)) for x in units],
        "out": [list(g.out_connections(x)) for x in units],
        "degrees": [(g.in_degree(x), g.out_degree(x)) for x in units],
        "hosts": g.host_units(),
        "wcc": g.weakly_connected_components(),
    }


def labels_for(graph, rng):
    return {
        x: rng.randint(-1, 1) for x in graph.units() if graph.kind(x) != HOST_KIND
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_reads_match_networkx(seed):
    mine, ref = build(seed)
    seen = observe(mine)
    assert seen == observe(ref)
    assert seen["types"] <= {int, float}
    assert mine.num_units == len(seen["units"])
    assert mine.num_connections == len(seen["connections"])


@pytest.mark.parametrize("seed", SEEDS)
def test_copies_match_networkx(seed):
    mine, ref = build(seed)
    # A copy re-adds connections in connection order: fanin order may
    # change, exactly as networkx's copy changes it.
    assert observe(mine.copy()) == observe(ref.copy())
    assert observe(mine.copy().copy()) == observe(ref.copy().copy())
    mapping = {x: f"r_{x}" for x in list(mine.units())[::2]}
    assert observe(relabeled(mine, mapping)) == observe(ref.relabeled(mapping))


@pytest.mark.parametrize("seed", SEEDS)
def test_retimed_matches_networkx(seed):
    mine, ref = build(seed)
    rng = random.Random(seed)
    for _ in range(6):
        labels = labels_for(mine, rng)
        expected = ref.retimed(labels)
        if any(w < 0 for _cid, w in expected.connections()):
            with pytest.raises(NetlistError, match="negative"):
                mine.retimed(labels)
            continue
        got = mine.retimed(labels)
        assert got.name == expected.name
        assert observe(got) == observe(expected)
        assert observe(got.retimed({})) == observe(expected.retimed({}))


@pytest.mark.parametrize("seed", SEEDS)
def test_round_trips_keep_every_read(seed):
    mine, _ref = build(seed)
    seen = observe(mine)
    doc = graph_to_dict(mine)
    assert graph_to_dict(graph_from_dict(doc)) == doc
    assert observe(graph_from_dict(doc)) == observe(mine.copy())
    assert observe(pickle.loads(pickle.dumps(mine))) == seen
    assert observe(copy.deepcopy(mine)) == seen


@pytest.mark.parametrize("seed", SEEDS)
def test_edits_stay_private_to_a_graph(seed):
    mine, ref = build(seed)
    before = observe(mine)
    for graph in (mine.copy(), mine.retimed({}), copy.deepcopy(mine)):
        graph.add_unit("extra", delay=1.0)
        graph.add_connection("extra", next(mine.units()), weight=2)
        cid, w = next(graph.connections())
        graph.set_weight(cid, w + 5)
        assert "extra" in graph
        assert observe(mine) == before
    # ... and an edit of the original leaves its earlier copies alone.
    twin, ref_twin = mine.copy(), ref.copy()
    for g in (mine, ref):
        g.add_unit("late")
        g.add_connection("late", next(iter(before["units"])), weight=1)
    assert observe(mine) == observe(ref)
    assert observe(twin) == observe(ref_twin)


@pytest.mark.parametrize("seed", SEEDS)
def test_combinational_loops_found_as_networkx_finds_them(seed):
    for zero_cycle in (False, True):
        mine, ref = build(seed, zero_cycle=zero_cycle)
        assert (mine.combinational_loop() is not None) == ref.has_combinational_loop()
        assert ref.has_combinational_loop() == zero_cycle
        if zero_cycle:
            with pytest.raises(NetlistError, match="combinational"):
                mine.validate()
        else:
            mine.validate()


def test_array_view_follows_edits():
    mine, _ref = build(3)
    view = mine.arrays()
    assert mine.arrays() is view
    assert not view.w.flags.writeable
    assert view.w.tolist() == [w for _cid, w in mine.connections()]
    cid, w = next(mine.connections())
    mine.set_weight(cid, w + 1)
    assert mine.arrays() is not view
    assert mine.arrays().w[0] == w + 1 and view.w[0] == w


def test_plans_and_verifies_without_networkx(tmp_path):
    """The shipped package runs the whole flow with networkx absent."""
    import os
    import subprocess
    import sys

    code = (
        "import runpy, sys\n"
        "sys.modules['networkx'] = None\n"
        "sys.argv = ['repro', 'plan', 's27', '--quick', '--verify']\n"
        "runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert "all pass" in done.stdout
