"""Numeric edge cases: W/D decoding, fastcheck dedup, shared counts.

These pin the places where floating-point or array plumbing could rot
silently: the scalarised W/D decode, duplicate-arc handling in the
vectorised feasibility checker, and agreement between the two shared-
register counters (graph-level formula vs materialised netlist DFFs).
"""

import numpy as np
import pytest

from repro.netlist import CircuitGraph, bench_to_graph, random_bench_netlist
from repro.netlist.retime_bench import register_count, retime_bench
from repro.retime import wd_matrices
from repro.retime.fastcheck import FeasibilityChecker
from repro.retime.sharing import shared_register_count
from tests.oracles.wd import wd_matrices_reference


class TestWDDecodePrecision:
    def test_tiny_delays(self):
        """Delays near zero must not corrupt the ceil() decode."""
        g = CircuitGraph()
        g.add_unit("a", delay=1e-7)
        g.add_unit("b", delay=1e-7)
        g.add_connection("a", "b", weight=3)
        wd = wd_matrices(g)
        i = wd.index
        assert wd.w[i["a"], i["b"]] == 3
        assert wd.d[i["a"], i["b"]] == pytest.approx(2e-7)

    def test_zero_delay_everywhere(self):
        g = CircuitGraph()
        for name in "abc":
            g.add_unit(name, delay=0.0)
        g.add_connection("a", "b", weight=1)
        g.add_connection("b", "c", weight=2)
        wd = wd_matrices(g)
        i = wd.index
        assert wd.w[i["a"], i["c"]] == 3
        assert wd.d[i["a"], i["c"]] == 0.0

    def test_large_weights(self):
        g = CircuitGraph()
        g.add_unit("a", delay=5.0)
        g.add_unit("b", delay=5.0)
        g.add_connection("a", "b", weight=10_000)
        wd = wd_matrices(g)
        assert wd.w[wd.index["a"], wd.index["b"]] == 10_000

    def test_fast_matches_reference_with_mixed_scales(self):
        g = CircuitGraph()
        delays = [0.001, 100.0, 0.5, 7.25, 0.0]
        for i, d in enumerate(delays):
            g.add_unit(f"u{i}", delay=d)
        for i in range(4):
            g.add_connection(f"u{i}", f"u{i+1}", weight=i % 2)
        g.add_connection("u4", "u0", weight=3)
        fast = wd_matrices(g)
        ref = wd_matrices_reference(g)
        both = np.isfinite(fast.w)
        assert np.array_equal(fast.w[both], ref.w[both])
        assert np.allclose(fast.d[both], ref.d[both])


class TestFastCheckerDedup:
    def test_parallel_constraints_keep_tightest(self):
        """Duplicate arcs must take the min bound, not the csr sum."""
        g = CircuitGraph()
        g.add_unit("a", delay=1.0)
        g.add_unit("b", delay=1.0)
        g.add_connection("a", "b", weight=5)
        g.add_connection("a", "b", weight=1)  # tighter
        g.add_connection("b", "a", weight=1)
        wd = wd_matrices(g)
        checker = FeasibilityChecker.build(g, wd)
        # period below the 2-delay cycle bound: needs both registers on
        # one side; feasible at T=2 (each unit's delay is 1, cycle has
        # weight 2 and delay 2 -> one register per unit boundary).
        labels = checker.labels(2.0)
        assert labels is not None

    def test_static_arrays_cover_hosts(self):
        g = CircuitGraph()
        src, snk = g.ensure_hosts()
        g.add_unit("a", delay=1.0)
        g.add_connection(src, "a", weight=1)
        g.add_connection("a", snk, weight=1)
        wd = wd_matrices(g)
        checker = FeasibilityChecker.build(g, wd)
        # host equality arcs present: two extra arcs beyond the edges
        assert len(checker.static_b) == 2 + 2


class TestSharedCountersAgree:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_graph_formula_matches_materialised_netlist(self, seed):
        """`shared_register_count` (graph max-per-driver formula) must
        equal the DFF count of the materialised netlist, which shares
        per-driver chains by construction."""
        netlist = random_bench_netlist(f"sc{seed}", 20, 3, 5, 3, seed)
        graph = bench_to_graph(netlist)
        rebuilt = retime_bench(netlist, {})  # identity retiming
        hosts = set(graph.host_units())
        # a driver's chain must cover its gate sinks AND its primary
        # outputs (edges into the sink host); edges out of the source
        # host carry no registers in a bench graph.
        per_driver = {}
        for (u, v, _k), w in graph.connections():
            if u in hosts:
                continue
            per_driver[u] = max(per_driver.get(u, 0), w)
        assert sum(per_driver.values()) == register_count(rebuilt)
