"""The one Bellman–Ford kernel, :func:`repro.retime.fastcheck.relax`.

A differential test against networkx on seeded random difference
systems, and the min-period gate: the search's probes keep every
pinned verdict of a real plan, and the negative-cycle exit certifies
infeasibility in a few rounds.
"""

import bisect
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


def pinned_searches(rows):
    """Pinned ``[span, t, verdict]`` rows cut into one list per search.

    A search of the budgeted engine ended on its ``feas/refine`` rows,
    or on an infeasible ``feas/certify`` when it had none (a feasible
    one resumed it), so a ``feas/probe`` after either starts the next
    search.
    """
    runs = [[]]
    for row in rows:
        prev = runs[-1][-1] if runs[-1] else None
        ended = prev is not None and (
            prev[0] == "feas/refine"
            or prev[0] == "feas/certify" and prev[2] == "infeasible"
        )
        if row[0] == "feas/probe" and ended:
            runs.append([])
        runs[-1].append(row)
    return runs


def probe_spans(spans, parent):
    """The ``feas/probe`` children of span ``parent``, in start order."""
    return sorted(
        (s for s in spans if s.name == "feas/probe" and s.parent_id == parent.span_id),
        key=lambda s: s.start,
    )


class TestMinPeriodGate:
    """Cold plans: the search's probes and the verdicts pinned in
    ``tests/data/feas_verdicts.json`` (recorded on the budgeted search
    the dense one replaced: ``feas/probe`` rows may read ``unverified``,
    and ``feas/certify``/``feas/refine`` rows are dense probes) all
    agree with a fresh cold check, ``T_min`` is the first feasible
    candidate, and an infeasible probe's certificate costs a few
    rounds."""

    @pytest.mark.parametrize("name", ["s298", "s386", "s526"])
    def test_feas_verdicts_unchanged(self, name):
        spec = get_circuit(name)
        tracer = Tracer()
        outcome = plan_interconnect(
            spec.build(),
            ctx=RunContext(tracer=tracer),
            max_iterations=2,
            **spec.plan_kwargs(),
        )
        searches = sorted(
            (s for s in tracer.spans if s.name == "min_period/search"),
            key=lambda s: s.start,
        )
        assert len(searches) == len(outcome.iterations)
        checkers, candidates = [], []
        for it in outcome.iterations:
            wd = wd_matrices(it.expanded.graph)
            checkers.append(FeasibilityChecker.build(it.expanded.graph, wd))
            candidates.append(candidate_periods(wd))

        def feasible(k, t):
            return checkers[k].check(t) is not None

        # Every pinned verdict, on its own iteration's graph.
        pinned = pinned_searches(json.loads(FEAS_VERDICTS.read_text())[name])
        assert len(pinned) == len(searches)
        unverified = 0
        for k, rows in enumerate(pinned):
            for _span, t, verdict in rows:
                assert t in candidates[k]
                if verdict == "unverified":
                    unverified += 1
                    continue
                assert feasible(k, t) == (verdict == "feasible"), (t, verdict)
        print(f"{name}: {unverified} unverified pinned verdicts skipped")

        for k, search in enumerate(searches):
            probes = probe_spans(tracer.spans, search)
            assert probes
            for p in probes:
                t, verdict = p.attrs["t"], p.attrs["verdict"]
                assert verdict in ("feasible", "infeasible")
                assert feasible(k, t) == (verdict == "feasible"), (t, verdict)
                if verdict == "infeasible":
                    assert p.attrs["cycle_len"] >= 2
                else:
                    assert "cycle_len" not in p.attrs
            # T_min is the first feasible candidate. A full scan of the
            # tens of thousands below it would take minutes: every one
            # below the largest unit delay is rejected outright, the
            # one just below T_min and a sample of the rest are probed.
            t_min = search.attrs["t_min"]
            assert t_min == outcome.iterations[k].t_min and feasible(k, t_min)
            below = [t for t in candidates[k] if t < t_min]
            probed = below[bisect.bisect_left(below, checkers[k].max_delay) :]
            assert len(probed) < len(below)
            assert not any(feasible(k, t) for t in below[: len(below) - len(probed)])
            assert not any(feasible(k, t) for t in probed[::-1][:: max(1, len(probed) // 16)])
            assert not feasible(k, below[-1])

    def test_s386_certify_within_16_rounds(self):
        from repro.experiments.fixtures import prepared_instance

        inst = prepared_instance("s386")
        graph, wd = inst.expanded.graph, inst.wd
        tracer = Tracer()
        t_min, result = min_period_retiming(graph, tracer=tracer)
        certs = [
            s for s in tracer.spans
            if s.name == "feas/probe" and s.attrs["verdict"] == "infeasible"
        ]
        assert certs
        for span in certs:
            assert span.attrs["rounds"] <= 16
            assert span.attrs["cycle_len"] >= 2
        # The certificate below T_min by hand: the largest candidate
        # below it, warm-started from the T_min witness.
        below = max(t for t in candidate_periods(wd) if t < t_min)
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
        and has none. The search's ``feas/probe`` spans copy these
        fields."""
        from tests.test_feas import self_loop_graph

        graph = self_loop_graph()
        checker = FeasibilityChecker.build(graph, wd_matrices(graph))
        assert checker.check(3.0) is not None and checker.last_cycle is None
        assert checker.check(2.0) is None
        assert checker.last_rounds >= 1 and len(checker.last_cycle) == 2
        assert checker.check(1.0) is None
        assert checker.last_rounds == 0 and checker.last_cycle is None
