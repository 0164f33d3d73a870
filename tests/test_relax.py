"""The one Bellman–Ford kernel, :func:`repro.retime.fastcheck.relax`.

A differential test against networkx on seeded random difference
systems, and the min-period gate: the negative-cycle exit changes no
probe verdict of a real plan and certifies infeasibility in a few
rounds.
"""

import json
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from repro.core import RunContext, plan_interconnect
from repro.experiments.circuits import get_circuit
from repro.obs import Tracer
from repro.retime import fastcheck
from repro.retime.fastcheck import FeasibilityChecker, group_arcs, relax
from repro.retime.minperiod import min_period_retiming
from repro.retime.wd import candidate_periods, wd_matrices

FEAS_VERDICTS = Path(__file__).parent / "data" / "feas_verdicts.json"


def random_system(seed):
    """A seeded difference system ``r(u) - r(v) <= b`` over ``n``
    vertices and a start vector.

    The mix: bounds drawn around a hidden potential (feasible unless
    an extra arc closes a negative cycle), zero and negative bounds,
    host-equality pairs (``b = 0`` both ways), non-negative self-loops,
    parallel arcs, vertices with no arcs at all (disconnected parts),
    and arbitrary non-zero start labels.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    # Vertices in [0, parts) carry the arcs; the rest stay isolated.
    parts = int(rng.integers(1, n + 1))
    potential = rng.integers(-6, 7, size=n)
    m = int(rng.integers(0, 4 * parts + 1))
    u = rng.integers(0, parts, size=m)
    v = rng.integers(0, parts, size=m)
    slack = rng.integers(0, 3, size=m)
    b = potential[u] - potential[v] + slack
    rows = [(int(a), int(c), int(w)) for a, c, w in zip(u, v, b) if a != c]
    for x in rng.integers(0, parts, size=int(rng.integers(0, 3))):
        rows.append((int(x), int(x), int(rng.integers(0, 3))))
    hosts = rng.permutation(parts)[: int(rng.integers(0, min(parts, 4) + 1))]
    for a, c in zip(hosts, hosts[1:]):
        rows.append((int(a), int(c), 0))
        rows.append((int(c), int(a), 0))
    if parts > 1 and rng.random() < 0.5:
        # One arc below the potential difference: infeasible iff the
        # rest of the system closes a cycle through it cheaply enough.
        a, c = (int(x) for x in rng.choice(parts, size=2, replace=False))
        rows.append((a, c, int(potential[a] - potential[c] - rng.integers(1, 8))))
    rng.shuffle(rows)
    start = rng.integers(-20, 21, size=n) * int(rng.integers(0, 3))
    return n, rows, start.astype(np.int64)


def as_arcs(n, rows):
    if rows:
        u, v, b = (np.array(col, dtype=np.int64) for col in zip(*rows))
    else:
        u = v = b = np.zeros(0, dtype=np.int64)
    return group_arcs(n, u, v, b)


def oracle(n, rows, start):
    """networkx's verdict and, when feasible, the greatest solution
    ``<= start``: Bellman–Ford from a virtual source with an arc of
    weight ``start[v]`` into each ``v``."""
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    for a, c, w in rows:  # r(a) - r(c) <= w is the arc c -> a
        if not g.has_edge(c, a) or w < g[c][a]["weight"]:
            g.add_edge(c, a, weight=w)
    if nx.negative_edge_cycle(g):
        return None
    source = n
    g.add_weighted_edges_from((source, x, int(start[x])) for x in range(n))
    dist = nx.single_source_bellman_ford_path_length(g, source)
    return np.array([dist[x] for x in range(n)], dtype=np.int64)


def assert_negative_cycle(arcs, rows, cycle):
    assert cycle is not None and cycle.size >= 1
    u, v, b = arcs.u[cycle], arcs.v[cycle], arcs.b[cycle]
    # closed: each arc leaves the vertex the previous one entered
    assert np.array_equal(v, np.roll(u, 1))
    assert len(set(v.tolist())) == cycle.size  # a simple cycle
    system = set(rows)
    assert all(row in system for row in zip(u.tolist(), v.tolist(), b.tolist()))
    assert int(b.sum()) < 0


class TestRelaxDifferential:
    SEEDS = range(300)

    def test_mix_covers_both_verdicts(self):
        verdicts = [
            oracle(*random_system(seed)) is None for seed in self.SEEDS
        ]
        assert 30 <= sum(verdicts) <= len(verdicts) - 30

    @pytest.mark.parametrize("check_every", [1, 4, 10**9])
    def test_matches_networkx(self, check_every, monkeypatch):
        monkeypatch.setattr(fastcheck, "CYCLE_CHECK_EVERY", check_every)
        for seed in self.SEEDS:
            n, rows, start = random_system(seed)
            arcs = as_arcs(n, rows)
            out = relax(arcs, start)
            want = oracle(n, rows, start)
            assert 1 <= out.rounds <= n + 2, seed
            if want is None:
                assert out.labels is None, seed
                assert_negative_cycle(arcs, rows, out.cycle)
            else:
                assert out.cycle is None, seed
                assert np.array_equal(out.labels, want), seed

    def test_cycle_found_without_periodic_checks(self, monkeypatch):
        """With the periodic check off, the forest bound and the round-n
        rule still end every infeasible solve with a cycle, by round
        ``n`` at the latest."""
        monkeypatch.setattr(fastcheck, "CYCLE_CHECK_EVERY", 10**9)
        for seed in self.SEEDS:
            n, rows, start = random_system(seed)
            arcs = as_arcs(n, rows)
            out = relax(arcs, start)
            if out.labels is None:
                assert out.cycle is not None, seed
                assert out.rounds <= n, seed

    def test_two_vertex_negative_cycle(self):
        rows = [(0, 1, 2), (1, 0, -3)]
        arcs = as_arcs(2, rows)
        out = relax(arcs, np.zeros(2, dtype=np.int64))
        assert out.labels is None
        assert_negative_cycle(arcs, rows, out.cycle)

    def test_empty_system(self):
        out = relax(as_arcs(0, []), np.zeros(0, dtype=np.int64))
        assert out.labels.size == 0 and out.cycle is None


#: The period probes; ``feas/witness`` spans are table builds, not probes.
PROBE_SPANS = ("feas/probe", "feas/certify", "feas/refine")


def feas_spans(spans):
    return sorted((s for s in spans if s.name in PROBE_SPANS), key=lambda s: s.start)


class TestMinPeriodGate:
    """Cold plans keep every probe verdict of the kernel without the
    cycle exit, and an infeasible certificate costs a few rounds."""

    @pytest.mark.parametrize("name", ["s298", "s386", "s526"])
    def test_feas_verdicts_unchanged(self, name):
        spec = get_circuit(name)
        tracer = Tracer()
        plan_interconnect(
            spec.build(),
            ctx=RunContext(tracer=tracer),
            max_iterations=2,
            **spec.plan_kwargs(),
        )
        got = [
            [s.name, s.attrs["t"], s.attrs["verdict"]]
            for s in feas_spans(tracer.spans)
        ]
        assert got == json.loads(FEAS_VERDICTS.read_text())[name]
        for s in feas_spans(tracer.spans):
            if s.name != "feas/probe" and s.attrs["verdict"] == "infeasible":
                assert s.attrs["cycle_len"] >= 2
            else:
                assert "cycle_len" not in s.attrs

    def test_s386_certify_within_16_rounds(self):
        from repro.experiments.fixtures import prepared_instance

        inst = prepared_instance("s386")
        graph, wd = inst.expanded.graph, inst.wd
        tracer = Tracer()
        t_min, result = min_period_retiming(graph, tracer=tracer)
        certs = [
            s for s in tracer.spans
            if s.name == "feas/certify" and s.attrs["verdict"] == "infeasible"
        ]
        assert certs
        for span in certs:
            assert span.attrs["rounds"] <= 16
            assert span.attrs["cycle_len"] >= 2
        # The same certificate by hand: the largest exact candidate
        # below T_min, warm-started from the T_min witness.
        below = max(t for t in candidate_periods(wd, tol=0.0) if t < t_min)
        checker = FeasibilityChecker.build(graph, wd)
        start = np.array([result.labels[v] for v in wd.order], dtype=np.int64)
        assert checker.refine(t_min, start) is not None
        assert checker.last_cycle is None
        assert checker.refine(below, start) is None
        assert 1 <= checker.last_rounds <= 16
        cycle = checker.last_cycle
        assert len(cycle) >= 2 and int(cycle[:, 2].sum()) < 0
        assert np.array_equal(cycle[:, 1], np.roll(cycle[:, 0], 1))

    def test_dense_verdicts_say_why(self):
        """A dense probe refuted by relaxation carries its cycle; an
        immediate reject (a unit slower than the period) runs no round
        and has none. The ``feas/certify`` and ``feas/refine`` spans
        copy these fields."""
        from tests.test_feas_probe import self_loop_graph

        graph = self_loop_graph()
        checker = FeasibilityChecker.build(graph, wd_matrices(graph))
        assert checker.check(3.0) is not None and checker.last_cycle is None
        assert checker.check(2.0) is None
        assert checker.last_rounds >= 1 and len(checker.last_cycle) == 2
        assert checker.check(1.0) is None
        assert checker.last_rounds == 0 and checker.last_cycle is None
