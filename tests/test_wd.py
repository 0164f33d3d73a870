"""Tests for W/D matrix computation, including the Leiserson-Saxe
correlator example and fast-vs-reference cross-checks."""

import numpy as np
import pytest

from repro.errors import RetimingError
from repro.netlist import CircuitGraph, random_circuit
from repro.retime import candidate_periods, wd_matrices
from tests.oracles.constraints import pairs_exceeding_arrays
from tests.oracles.wd import scalarised_csr_reference, wd_matrices_reference


def correlator():
    """A correlator in the style of Leiserson & Saxe's Fig. 1.

    Vertices: host h (delay 0), adders a1..a3 (delay 7 each),
    comparators c1..c4 (delay 3 each); four registers along the
    comparator chain. We model the single host as a plain zero-delay
    logic unit here because the correlator is a pure cycle (the
    split-host model is for open circuits). Reference values asserted
    below are derived by hand / brute force for exactly this graph.
    """
    g = CircuitGraph("correlator")
    g.add_unit("h", delay=0.0)
    for i in range(1, 5):
        g.add_unit(f"c{i}", delay=3.0)
    for i in range(1, 4):
        g.add_unit(f"a{i}", delay=7.0)
    g.add_connection("h", "c1", weight=1)
    g.add_connection("c1", "c2", weight=1)
    g.add_connection("c2", "c3", weight=1)
    g.add_connection("c3", "c4", weight=1)
    g.add_connection("c4", "a3", weight=0)
    g.add_connection("a3", "a2", weight=0)
    g.add_connection("a2", "a1", weight=0)
    g.add_connection("a1", "h", weight=0)
    g.add_connection("c1", "a1", weight=0)
    g.add_connection("c2", "a2", weight=0)
    g.add_connection("c3", "a3", weight=0)
    return g


class TestCorrelator:
    def test_known_values(self):
        g = correlator()
        wd = wd_matrices(g)
        i = wd.index
        # Longest zero-weight path: c4 -> a3 -> a2 -> a1 (3 + 3*7 = 24).
        assert wd.w[i["c4"], i["a1"]] == 0
        assert wd.d[i["c4"], i["a1"]] == 24.0
        # h to c2 must pass two registers (h -> c1 -> c2).
        assert wd.w[i["h"], i["c2"]] == 2
        # Diagonal: empty path.
        assert wd.w[i["h"], i["h"]] == 0
        assert wd.d[i["c1"], i["c1"]] == 3.0

    def test_candidate_periods_contains_optimum(self):
        g = correlator()
        wd = wd_matrices(g)
        # The correlator's known minimum period is 13.
        assert 13.0 in candidate_periods(wd)


class TestAgainstReference:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_circuits_match(self, seed):
        g = random_circuit("rnd", n_units=30, n_ffs=25, seed=seed)
        fast = wd_matrices(g)
        ref = wd_matrices_reference(g)
        assert fast.order == ref.order
        for field in ("edge_src", "edge_dst", "edge_w"):
            assert np.array_equal(getattr(fast, field), getattr(ref, field))
        both = np.isfinite(fast.w) & np.isfinite(ref.w)
        assert (np.isfinite(fast.w) == np.isfinite(ref.w)).all()
        assert np.array_equal(fast.w[both], ref.w[both])
        assert np.allclose(fast.d[both], ref.d[both])

    def test_s27_matches(self):
        from repro.netlist import s27_graph

        g = s27_graph()
        fast = wd_matrices(g)
        ref = wd_matrices_reference(g)
        both = np.isfinite(fast.w)
        assert (both == np.isfinite(ref.w)).all()
        assert np.array_equal(fast.w[both], ref.w[both])
        assert np.allclose(fast.d[both], ref.d[both])


class TestDegenerateGraphs:
    def test_zero_weight_cycle_raises(self):
        g = CircuitGraph()
        g.add_unit("a", delay=1.0)
        g.add_unit("b", delay=1.0)
        g.add_connection("a", "b", weight=0)
        g.add_connection("b", "a", weight=0)
        with pytest.raises(RetimingError, match="zero-weight cycle"):
            wd_matrices(g)

    def test_disconnected_pairs_are_inf(self):
        g = CircuitGraph()
        g.add_unit("a", delay=1.0)
        g.add_unit("b", delay=1.0)
        wd = wd_matrices(g)
        assert np.isinf(wd.w[wd.index["a"], wd.index["b"]])

    def test_pairs_exceeding_ignores_unreachable(self):
        g = CircuitGraph()
        g.add_unit("a", delay=5.0)
        g.add_unit("b", delay=5.0)
        wd = wd_matrices(g)
        rows, cols = pairs_exceeding_arrays(wd, 1.0)
        assert rows.size == 0 and cols.size == 0

    def test_single_unit(self):
        g = CircuitGraph()
        g.add_unit("only", delay=2.0)
        wd = wd_matrices(g)
        assert wd.max_vertex_delay() == 2.0
        assert candidate_periods(wd) == [2.0]

    def test_parallel_edges_take_min_weight(self):
        g = CircuitGraph()
        g.add_unit("a", delay=1.0)
        g.add_unit("b", delay=1.0)
        g.add_connection("a", "b", weight=3)
        g.add_connection("a", "b", weight=1)
        wd = wd_matrices(g)
        assert wd.w[wd.index["a"], wd.index["b"]] == 1


class TestCandidatePeriods:
    @staticmethod
    def _wd_with_d(values):
        """A minimal WDMatrices whose finite D values are ``values``."""
        from repro.retime import WDMatrices

        n = len(values)
        d = np.full((n, n), np.inf)
        d[0, :] = np.array(values, dtype=np.float64)
        none = np.empty(0, dtype=np.int64)
        return WDMatrices(
            order=[], index={}, w=np.zeros((n, n)), d=d,
            edge_src=none, edge_dst=none, edge_w=none,
        )

    def test_zero_tolerance_matches_exact_set(self):
        for seed in range(4):
            g = random_circuit("cp", n_units=25, n_ffs=14, seed=seed)
            wd = wd_matrices(g)
            exact = sorted({float(x) for x in wd.d[np.isfinite(wd.d)]})
            assert candidate_periods(wd).tolist() == exact

    def test_well_separated_values_untouched(self):
        wd = self._wd_with_d([1.0, 2.0, 3.5])
        assert candidate_periods(wd).tolist() == [1.0, 2.0, 3.5]

    def test_no_finite_values(self):
        from repro.retime import WDMatrices

        d = np.full((2, 2), np.inf)
        none = np.empty(0, dtype=np.int64)
        wd = WDMatrices(
            order=[], index={}, w=np.zeros((2, 2)), d=d,
            edge_src=none, edge_dst=none, edge_w=none,
        )
        assert candidate_periods(wd).tolist() == []

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_candidate_sets_bit_identical_to_per_element_lists(self, seed):
        # Near-equal decode-noise values stay separate candidates, bit
        # for bit: one ``np.unique``, no merging.
        cases = [
            wd_matrices(random_circuit("cs", n_units=40, n_ffs=18, seed=seed)),
            self._wd_with_d([1.0, 1.0 + 5e-10, 1.0 + 8e-10, 2.0, 2.0]),
        ]
        for wd in cases:
            got = candidate_periods(wd)
            want = [float(x) for x in sorted(set(wd.d[np.isfinite(wd.d)].tolist()))]
            assert got.dtype == np.float64
            assert [x.hex() for x in got.tolist()] == [x.hex() for x in want]


class TestScalarisedCsr:
    """The vectorised scalarised-CSR builder against its dict-loop
    reference: identical sparsity, identical floats (same min-reduction
    over duplicate edges), so every downstream W/D value is unchanged."""

    @pytest.mark.parametrize("seed", [0, 1, 5, 11])
    def test_matches_reference_on_random_circuits(self, seed):
        from repro.retime.wd import _scalarised_csr, _min_weight_edges

        g = random_circuit("rnd", n_units=40, n_ffs=30, seed=seed)
        order = list(g.units())
        fast, base_fast = _scalarised_csr(g, _min_weight_edges(g))
        ref, base_ref = scalarised_csr_reference(g, order)
        assert base_fast == base_ref
        assert (fast != ref).nnz == 0  # identical sparsity AND values

    def test_parallel_edges_reduce_to_min(self):
        from repro.retime.wd import _scalarised_csr, _min_weight_edges

        g = CircuitGraph()
        g.add_unit("a", delay=1.0)
        g.add_unit("b", delay=2.0)
        g.add_connection("a", "b", weight=4)
        g.add_connection("a", "b", weight=1)
        g.add_connection("a", "b", weight=2)
        order = list(g.units())
        matrix, base = _scalarised_csr(g, _min_weight_edges(g))
        i = {u: k for k, u in enumerate(order)}
        assert matrix[i["a"], i["b"]] == 1 * base - 1.0

    def test_wd_edges_are_min_weight_without_self_loops(self):
        g = CircuitGraph()
        g.add_unit("a", delay=1.0)
        g.add_unit("b", delay=2.0)
        g.add_connection("a", "b", weight=4)
        g.add_connection("a", "b", weight=1)
        g.add_connection("b", "b", weight=2)
        g.add_connection("b", "a", weight=3)
        wd = wd_matrices(g)
        a, b = wd.index["a"], wd.index["b"]
        edges = list(
            zip(wd.edge_src.tolist(), wd.edge_dst.tolist(), wd.edge_w.tolist())
        )
        assert edges == sorted([(a, b, 1), (b, a, 3)])


class TestPairsExceedingArrays:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_arrays_match_brute_force(self, seed):
        g = random_circuit("rnd", n_units=30, n_ffs=25, seed=seed)
        wd = wd_matrices(g)
        period = 0.5 * (wd.max_vertex_delay() + float(np.nanmax(
            np.where(np.isfinite(wd.d), wd.d, np.nan))))
        rows, cols = pairs_exceeding_arrays(wd, period)
        assert rows.dtype.kind == "i" and cols.dtype.kind == "i"
        n = len(wd.order)
        expected = [
            (i, j)
            for i in range(n)
            for j in range(n)
            if i != j and np.isfinite(wd.d[i, j]) and wd.d[i, j] > period
        ]
        assert list(zip(rows.tolist(), cols.tolist())) == expected

    def test_diagonal_and_infinite_excluded(self):
        g = CircuitGraph()
        g.add_unit("a", delay=5.0)
        g.add_unit("b", delay=5.0)
        g.add_connection("a", "b", weight=1)
        wd = wd_matrices(g)
        rows, cols = pairs_exceeding_arrays(wd, 0.1)
        pairs = set(zip(rows.tolist(), cols.tolist()))
        assert all(r != c for r, c in pairs)
        i = wd.index
        assert (i["b"], i["a"]) not in pairs  # unreachable -> inf -> excluded
