"""Unit tests for the retiming graph substrate."""

import pytest

from repro.errors import NetlistError
from repro.netlist import CircuitGraph, HOST_SNK, HOST_SRC, relabeled
from repro.netlist.graph import HOST_KIND, INTERCONNECT, LOGIC
from tests.oracles.graph import simple_min_weight_digraph


def three_unit_chain():
    g = CircuitGraph("chain")
    g.add_unit("a", delay=1.0)
    g.add_unit("b", delay=2.0)
    g.add_unit("c", delay=3.0)
    g.add_connection("a", "b", weight=1)
    g.add_connection("b", "c", weight=0)
    return g


class TestConstruction:
    def test_add_unit_records_attributes(self):
        g = CircuitGraph()
        g.add_unit("x", delay=1.5, area=4.0, kind=INTERCONNECT)
        assert g.delay("x") == 1.5
        assert g.area("x") == 4.0
        assert g.kind("x") == INTERCONNECT

    def test_duplicate_unit_rejected(self):
        g = CircuitGraph()
        g.add_unit("x")
        with pytest.raises(NetlistError, match="duplicate"):
            g.add_unit("x")

    def test_negative_delay_rejected(self):
        g = CircuitGraph()
        with pytest.raises(NetlistError, match="negative delay"):
            g.add_unit("x", delay=-1)

    def test_negative_area_rejected(self):
        g = CircuitGraph()
        with pytest.raises(NetlistError, match="negative area"):
            g.add_unit("x", area=-1)

    def test_unknown_kind_rejected(self):
        g = CircuitGraph()
        with pytest.raises(NetlistError, match="kind"):
            g.add_unit("x", kind="mystery")

    def test_connection_to_unknown_unit_rejected(self):
        g = CircuitGraph()
        g.add_unit("a")
        with pytest.raises(NetlistError, match="unknown unit"):
            g.add_connection("a", "nope")

    def test_negative_weight_rejected(self):
        g = three_unit_chain()
        with pytest.raises(NetlistError, match="negative weight"):
            g.add_connection("a", "c", weight=-1)

    def test_parallel_connections_allowed(self):
        g = three_unit_chain()
        cid1 = g.add_connection("a", "b", weight=0)
        cid2 = g.add_connection("a", "b", weight=5)
        assert cid1 != cid2
        assert g.weight(cid2) == 5
        assert g.num_connections == 4

    def test_ensure_hosts_idempotent(self):
        g = CircuitGraph()
        src, snk = g.ensure_hosts()
        assert (src, snk) == g.ensure_hosts()
        assert set(g.host_units()) == {HOST_SRC, HOST_SNK}
        assert g.kind(src) == HOST_KIND


class TestIntrospection:
    def test_counts(self):
        g = three_unit_chain()
        assert g.num_units == 3
        assert g.num_connections == 2
        assert g.total_flip_flops() == 1
        assert g.total_delay() == 6.0

    def test_fanin_fanout(self):
        g = three_unit_chain()
        assert g.fanout("a") == ["b"]
        assert g.fanin("c") == ["b"]
        assert g.in_degree("b") == 1
        assert g.out_degree("b") == 1

    def test_kind_iterators(self):
        g = three_unit_chain()
        g.add_unit("w", kind=INTERCONNECT)
        assert set(g.logic_units()) == {"a", "b", "c"}
        assert set(g.interconnect_units()) == {"w"}

    def test_contains(self):
        g = three_unit_chain()
        assert "a" in g
        assert "z" not in g

    def test_set_weight(self):
        g = three_unit_chain()
        cid = next(g.connection_ids())
        g.set_weight(cid, 7)
        assert g.weight(cid) == 7
        with pytest.raises(NetlistError):
            g.set_weight(cid, -2)


class TestRetimed:
    def test_retimed_weights(self):
        g = three_unit_chain()
        out = g.retimed({"a": 0, "b": 1, "c": 1})
        weights = {cid[:2]: w for cid, w in out.connections()}
        assert weights[("a", "b")] == 2
        assert weights[("b", "c")] == 0

    def test_retimed_rejects_negative(self):
        g = three_unit_chain()
        with pytest.raises(NetlistError, match="negative"):
            g.retimed({"b": -2})

    def test_retimed_rejects_host_move(self):
        g = three_unit_chain()
        src, _snk = g.ensure_hosts()
        g.add_connection(src, "a")
        with pytest.raises(NetlistError, match="keep r"):
            g.retimed({src: 1})

    def test_retimed_missing_labels_default_zero(self):
        g = three_unit_chain()
        out = g.retimed({})
        assert out.total_flip_flops() == g.total_flip_flops()

    def test_retimed_preserves_original(self):
        g = three_unit_chain()
        g.retimed({"b": 1, "c": 1})
        assert g.total_flip_flops() == 1


class TestValidate:
    def test_valid_graph_passes(self):
        three_unit_chain().validate()

    def test_combinational_cycle_detected(self):
        g = three_unit_chain()
        g.add_connection("c", "b", weight=0)
        with pytest.raises(NetlistError, match="cycle"):
            g.validate()

    def test_registered_cycle_ok(self):
        g = three_unit_chain()
        g.add_connection("c", "a", weight=1)
        g.validate()


class TestHelpers:
    def test_simple_min_weight_digraph_collapses_parallel(self):
        g = three_unit_chain()
        g.add_connection("a", "b", weight=0)
        simple = simple_min_weight_digraph(g)
        assert simple.edges["a", "b"]["weight"] == 0

    def test_relabeled(self):
        g = three_unit_chain()
        out = relabeled(g, {"a": "alpha"})
        assert "alpha" in out
        assert "a" not in out
        assert out.fanout("alpha") == ["b"]

    def test_copy_independent(self):
        g = three_unit_chain()
        h = g.copy()
        h.add_unit("extra")
        assert "extra" not in g
