"""Tests for the synthetic circuit generators and their options."""

import pytest

from repro.errors import NetlistError
from repro.netlist import HOST_SNK, HOST_SRC, random_circuit


class TestRandomCircuit:
    def test_basic_shape(self):
        g = random_circuit("t", n_units=50, n_ffs=20, seed=0)
        assert g.num_units == 52  # + 2 hosts
        assert g.total_flip_flops() >= 20
        g.validate()

    def test_reproducible(self):
        a = random_circuit("t", n_units=40, n_ffs=15, seed=5)
        b = random_circuit("t", n_units=40, n_ffs=15, seed=5)
        assert sorted(a.connections()) == sorted(b.connections())

    def test_different_seeds_differ(self):
        a = random_circuit("t", n_units=40, n_ffs=15, seed=1)
        b = random_circuit("t", n_units=40, n_ffs=15, seed=2)
        assert sorted(a.connections()) != sorted(b.connections())

    def test_registered_io_default(self):
        g = random_circuit("t", n_units=30, n_ffs=10, seed=3)
        for (u, v, _k), w in g.connections():
            if u == HOST_SRC or v == HOST_SNK:
                assert w >= 1

    def test_unregistered_io_option(self):
        g = random_circuit("t", n_units=30, n_ffs=10, seed=3, registered_io=False)
        io_weights = [
            w
            for (u, v, _k), w in g.connections()
            if u == HOST_SRC or v == HOST_SNK
        ]
        assert io_weights and all(w == 0 for w in io_weights)

    def test_locality_reduces_cut(self):
        from repro.partition import partition_graph

        local = random_circuit("t", n_units=100, n_ffs=30, seed=4, locality=0.05)
        globl = random_circuit("t", n_units=100, n_ffs=30, seed=4, locality=1.0)
        cut_local = partition_graph(local, 5, seed=4).cut_connections(local)
        cut_global = partition_graph(globl, 5, seed=4).cut_connections(globl)
        assert cut_local < cut_global

    def test_explicit_io_counts(self):
        g = random_circuit(
            "t", n_units=40, n_ffs=15, seed=6, n_inputs=5, n_outputs=4
        )
        assert len(g.fanout(HOST_SRC)) >= 5
        assert len(g.fanin(HOST_SNK)) >= 4

    def test_tiny_circuits_terminate(self):
        # regression: used to spin forever picking I/O candidates
        for n in (2, 3, 4, 5):
            g = random_circuit("t", n_units=n, n_ffs=2, seed=0)
            g.validate()

    def test_too_small_rejected(self):
        with pytest.raises(NetlistError):
            random_circuit("t", n_units=1, n_ffs=0, seed=0)

    def test_every_cycle_registered(self):
        import networkx as nx

        g = random_circuit("t", n_units=60, n_ffs=25, seed=7)
        zero = nx.DiGraph()
        zero.add_nodes_from(g.units())
        zero.add_edges_from(
            (u, v)
            for (u, v, _k), w in g.connections()
            if w == 0
        )
        assert nx.is_directed_acyclic_graph(zero)


class TestFlipFlopBudget:
    def test_budget_is_floor(self):
        g = random_circuit("t", n_units=80, n_ffs=200, seed=8)
        assert g.total_flip_flops() == 200  # budget above the mandatory count

    def test_mandatory_registers_dominate_small_budgets(self):
        g = random_circuit("t", n_units=80, n_ffs=1, seed=8)
        assert g.total_flip_flops() > 1
