"""Unit tests for the constraint table, its helpers and pruning."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InfeasiblePeriodError
from repro.netlist import CircuitGraph, random_circuit
from repro.retime import (
    build_constraint_system,
    clock_period,
    min_area_retiming,
    tightest_rows,
    wd_matrices,
)
from tests.oracles.constraints import (
    by_kind,
    expected_constraints,
    named_constraints,
    pairs_exceeding_arrays,
    prune_redundant_arrays,
    prune_reference,
    tightest_dict,
    unpruned_clock_rows,
    unpruned_system,
)


def _pair_list(wd, period):
    """:func:`pairs_exceeding_arrays` as an (i, j) list."""
    rows, cols = pairs_exceeding_arrays(wd, period)
    return list(zip(rows.tolist(), cols.tolist()))


def prune_pairs(wd, period, pairs):
    """The shipped witness prune over an (i, j) list, as a list."""
    src = np.array([p[0] for p in pairs], dtype=np.int64)
    dst = np.array([p[1] for p in pairs], dtype=np.int64)
    kept_src, kept_dst = prune_redundant_arrays(wd, period, src, dst)
    return list(zip(kept_src.tolist(), kept_dst.tolist()))


def clock_constraints(g, period):
    """The clocking rows of ``g``'s system at ``period``."""
    return by_kind(named_constraints(build_constraint_system(g, period)), "clock")


def static_named(g):
    """``g``'s static rows as named constraints (a period above every
    path delay leaves no clocking rows)."""
    system = build_constraint_system(g, 1e9)
    assert len(system) == system.n_static
    return named_constraints(system)


@functools.lru_cache(maxsize=None)
def _s298():
    """s298 taken through the physical flow (first planning iteration)."""
    from repro.experiments.fixtures import prepared_instance

    return prepared_instance("s298")


def diamond():
    """a -> {b, c} -> d with one register on the a->b branch."""
    g = CircuitGraph()
    for name, delay in [("a", 1.0), ("b", 2.0), ("c", 5.0), ("d", 1.0)]:
        g.add_unit(name, delay=delay)
    g.add_connection("a", "b", weight=1)
    g.add_connection("a", "c", weight=0)
    g.add_connection("b", "d", weight=0)
    g.add_connection("c", "d", weight=0)
    return g


class TestEdgeConstraints:
    def test_one_per_pair_with_min_weight(self):
        g = diamond()
        g.add_connection("a", "b", weight=3)  # parallel, looser
        cons = static_named(g)
        ab = [c for c in cons if (c.u, c.v) == ("a", "b")]
        assert len(ab) == 1
        assert ab[0].bound == 1

    def test_kinds_marked(self):
        cons = static_named(diamond())
        assert [c.kind for c in cons] == ["edge"] * 4
        assert cons == expected_constraints(diamond(), None)


class TestHostConstraints:
    def test_equality_pair(self):
        g = diamond()
        g.ensure_hosts()
        cons = by_kind(static_named(g), "host")
        assert len(cons) == 2
        assert {c.bound for c in cons} == {0}
        assert {(c.u, c.v) for c in cons} == {
            (h, k) for h in g.host_units() for k in g.host_units() if h != k
        }

    def test_no_hosts_no_constraints(self):
        assert by_kind(static_named(diamond()), "host") == []


class TestClockConstraints:
    def test_pairs_exceeding_period(self):
        g = diamond()
        # T = 6: path a->c->d has delay 7 (> 6, W=0) -> constraint.
        cons = clock_constraints(g, 6.0)
        pairs = {(c.u, c.v) for c in cons}
        assert ("a", "d") in pairs

    def test_single_unit_delay_gate(self):
        g = diamond()
        with pytest.raises(InfeasiblePeriodError):
            clock_constraints(g, 4.0)  # unit c alone has delay 5

    def test_large_period_no_constraints(self):
        assert clock_constraints(diamond(), 100.0) == []


class TestSystem:
    def test_by_kind_partition(self):
        g = random_circuit("cs", n_units=30, n_ffs=12, seed=2)
        system = build_constraint_system(g, clock_period(g))
        named = named_constraints(system)
        total = (
            len(by_kind(named, "edge"))
            + len(by_kind(named, "host"))
            + len(by_kind(named, "clock"))
        )
        assert total == len(system)
        assert len(by_kind(named, "host")) == 2

    def test_period_recorded(self):
        system = build_constraint_system(diamond(), 9.0)
        assert system.period == 9.0

    def test_none_period_skips_clock(self):
        # The named form keeps the period-free list (edge and host
        # rows), which is the shipped table's static prefix.
        named = expected_constraints(diamond(), None)
        assert by_kind(named, "clock") == []
        system = build_constraint_system(diamond(), 6.0)
        assert named_constraints(system)[: system.n_static] == named

    def test_table_layout(self):
        system = build_constraint_system(diamond(), 6.0)
        table = system.constraints
        assert table.dtype.names == ("u", "v", "bound")
        assert all(table.dtype[f] == np.int64 for f in table.dtype.names)
        assert len(system) == len(table)


class TestTightestRows:
    """The numpy collapse equals the dict collapse, order included."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 6), st.integers(0, 6), st.integers(-3, 5)
            ),
            max_size=60,
        )
    )
    def test_matches_dict_collapse(self, rows):
        u, v, b = ([r[k] for r in rows] for k in range(3))
        got = tightest_rows(
            np.array(u, dtype=np.int64),
            np.array(v, dtype=np.int64),
            np.array(b, dtype=np.int64),
        )
        assert got.tolist() == tightest_dict(u, v, b)

    def test_empty(self):
        none = np.empty(0, dtype=np.int64)
        assert len(tightest_rows(none, none, none)) == 0


def _awkward_circuit(seed):
    """A random circuit (with hosts) plus parallel connections,
    positive self-loops and zero-delay units spliced into connections."""
    import random

    g = random_circuit("pw", n_units=30, n_ffs=16, seed=seed)
    rng = random.Random(seed)
    conns = [(u, v, w) for (u, v, _k), w in g.connections()]
    for u, v, w in rng.sample(conns, 8):
        g.add_connection(u, v, weight=w + rng.choice([0, 1, 2]))
    for u in rng.sample(list(g.units()), 4):
        g.add_connection(u, u, weight=rng.choice([1, 2]))
    for k, (u, v, w) in enumerate(rng.sample(conns, 6)):
        z = g.add_unit(f"z{k}", delay=0.0)
        g.add_connection(u, z, weight=0)
        g.add_connection(z, v, weight=w)
    g.validate()
    return g


class TestNamedDifferential:
    """The shipped table, named, equals the dict-built named list; so
    does the oracle's unpruned table (``prune=False``), the reference
    the prune's equivalence tests solve on."""

    @pytest.mark.parametrize("prune", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_circuits(self, seed, prune):
        g = _awkward_circuit(seed)
        assert g.host_units()
        wd = wd_matrices(g)
        build = build_constraint_system if prune else unpruned_system
        for frac in (0.5, 0.75, 1.0):
            period = frac * clock_period(g, wd) + (1 - frac) * wd.max_vertex_delay()
            system = build(g, period)
            assert named_constraints(system) == expected_constraints(
                g, period, prune=prune, wd=wd
            ), period


class TestPruningSoundnessSweep:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_pruned_optimum_satisfies_full_system(self, seed):
        from repro.retime import clock_period

        g = random_circuit("pr", n_units=35, n_ffs=18, seed=seed)
        wd = wd_matrices(g)
        period = 0.7 * clock_period(g, wd) + 0.3 * wd.max_vertex_delay()
        try:
            labels = min_area_retiming(g, period).labels
        except InfeasiblePeriodError:
            return  # nothing to check for this seed
        full = unpruned_system(g, period)
        for c in named_constraints(full):
            assert labels.get(c.u, 0) - labels.get(c.v, 0) <= c.bound


class TestPruneVectorisedAgainstReference:
    """The broadcast prune must keep exactly the reference kept-set."""

    _prune_reference = staticmethod(prune_reference)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_kept_set_identical(self, seed):
        from repro.retime import clock_period

        g = random_circuit("pv", n_units=30, n_ffs=16, seed=seed)
        wd = wd_matrices(g)
        period = 0.6 * clock_period(g, wd) + 0.4 * wd.max_vertex_delay()
        pairs = _pair_list(wd, period)
        assert prune_pairs(wd, period, pairs) == self._prune_reference(
            wd, period, pairs
        )

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_awkward_graphs_at_exact_d_values(self, seed):
        # Periods equal to D values make pairs with D == T tie on the
        # ``D > T`` test; the neighbour test must break every tie the
        # way the all-vertex reference does.
        from repro.retime import candidate_periods

        wd = wd_matrices(_awkward_circuit(seed))
        assert wd.edge_src.size and not (wd.edge_src == wd.edge_dst).any()
        exact = [
            t for t in candidate_periods(wd)
            if t >= wd.max_vertex_delay()
        ]
        for t in exact[:: max(1, len(exact) // 8)]:
            pairs = _pair_list(wd, t)
            assert prune_pairs(wd, t, pairs) == self._prune_reference(
                wd, t, pairs
            ), t

    def test_parallel_connections_use_min_weight(self):
        # a -> b carries weights 2 and 0. (a, c) is witnessed only by
        # (b, c) through the out-edge a -> b, and only at its lighter
        # weight: D(a, b) = 3 does not exceed the period.
        g = CircuitGraph()
        for name, delay in (("a", 1.0), ("b", 2.0), ("c", 2.0)):
            g.add_unit(name, delay=delay)
        g.add_connection("a", "b", weight=2)
        g.add_connection("a", "b", weight=0)
        g.add_connection("b", "c", weight=0)
        wd = wd_matrices(g)
        pairs = _pair_list(wd, 3.5)
        assert pairs == [(0, 2), (1, 2)]
        kept = prune_pairs(wd, 3.5, pairs)
        assert kept == self._prune_reference(wd, 3.5, pairs)
        assert kept == [(1, 2)]

    def test_endpoints_never_witness(self):
        # Below the largest unit delay, D(v, v) = delay(v) exceeds the
        # period; a pair's own endpoint must still not witness it.
        wd = wd_matrices(random_circuit("pv", n_units=30, n_ffs=16, seed=9))
        period = 0.5 * wd.max_vertex_delay()
        pairs = _pair_list(wd, period)
        assert prune_pairs(wd, period, pairs) == self._prune_reference(
            wd, period, pairs
        )

    def test_chunking_does_not_change_result(self, monkeypatch):
        import repro.retime.constraints as constraints_mod
        from repro.retime import clock_period

        g = random_circuit("pv", n_units=30, n_ffs=16, seed=8)
        wd = wd_matrices(g)
        period = 0.5 * clock_period(g, wd) + 0.5 * wd.max_vertex_delay()
        pairs = _pair_list(wd, period)
        whole = prune_pairs(wd, period, pairs)
        monkeypatch.setattr(constraints_mod, "_PRUNE_CHUNK", 7)
        assert len(pairs) > 7
        assert prune_pairs(wd, period, pairs) == whole

    @pytest.mark.parametrize("which", ["t_min", "t_clk"])
    def test_expanded_table1_graph(self, which):
        inst = _s298()
        period = getattr(inst, which)
        pairs = _pair_list(inst.wd, period)
        kept = prune_pairs(inst.wd, period, pairs)
        assert 0 < len(kept) < len(pairs)
        assert kept == self._prune_reference(inst.wd, period, pairs)

    def test_input_order_invariance(self):
        # The keep/drop predicate is per-pair, so permuting the input
        # pairs must permute the kept-set and nothing else (chunking
        # must not leak into the result).
        import random

        from repro.retime import clock_period

        g = random_circuit("pv", n_units=30, n_ffs=16, seed=6)
        wd = wd_matrices(g)
        period = 0.5 * clock_period(g, wd) + 0.5 * wd.max_vertex_delay()
        pairs = _pair_list(wd, period)
        whole = set(prune_pairs(wd, period, pairs))
        shuffled = list(pairs)
        random.Random(0).shuffle(shuffled)
        assert set(prune_pairs(wd, period, shuffled)) == whole

    def test_empty_pairs_passthrough(self):
        g = random_circuit("pv", n_units=10, n_ffs=6, seed=7)
        wd = wd_matrices(g)
        assert prune_pairs(wd, 1e9, []) == []


class TestArrayPaths:
    """The witness prune on the ndarray pairs it is fed."""

    @pytest.mark.parametrize("seed", [0, 2, 4])
    def test_prune_redundant_arrays_matches_list_api(self, seed):
        # The kept pairs are the reference kept-set, in input order.
        from repro.retime import clock_period

        g = random_circuit("pv", n_units=30, n_ffs=16, seed=seed)
        wd = wd_matrices(g)
        period = 0.6 * clock_period(g, wd) + 0.4 * wd.max_vertex_delay()
        rows, cols = pairs_exceeding_arrays(wd, period)
        kept_r, kept_c = prune_redundant_arrays(wd, period, rows, cols)
        kept = list(zip(kept_r.tolist(), kept_c.tolist()))
        pairs = _pair_list(wd, period)
        assert kept == TestPruneVectorisedAgainstReference._prune_reference(
            wd, period, pairs
        )
        assert kept == [p for p in pairs if p in set(kept)]


class TestWitnessTable:
    """One table at a floor serves every period at or above it."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_rows_match_reference_at_every_candidate(self, seed):
        # Exact candidates make pairs tie on ``D > T`` and ``M <= T``;
        # midpoints between them test the open intervals.
        from repro.retime import candidate_periods
        from repro.retime.constraints import WitnessTable

        g = _awkward_circuit(seed)
        assert g.host_units()
        wd = wd_matrices(g)
        floor = wd.max_vertex_delay()
        table = WitnessTable.build(wd, floor)
        exact = [t for t in candidate_periods(wd) if t >= floor]
        mids = [(a + b) / 2 for a, b in zip(exact, exact[1:])]
        for t in exact + mids:
            rows = table.rows(t)
            kept = list(zip(rows["u"].tolist(), rows["v"].tolist()))
            pairs = _pair_list(wd, t)
            assert kept == prune_reference(wd, t, pairs), t
            # The unpruned rows at ``t``, masked to the kept pairs.
            full = unpruned_clock_rows(wd, t)
            keep = set(kept)
            pairs_full = zip(full["u"].tolist(), full["v"].tolist())
            mask = np.array([p in keep for p in pairs_full], dtype=bool)
            assert np.array_equal(rows, full[mask]), t

    def test_rows_below_floor_refused(self):
        from repro.retime.constraints import WitnessTable

        wd = wd_matrices(random_circuit("pv", n_units=20, n_ffs=10, seed=3))
        floor = 1.5 * wd.max_vertex_delay()
        table = WitnessTable.build(wd, floor)
        assert table.floor == floor
        with pytest.raises(ValueError, match="below the witness table's floor"):
            table.rows(floor - 1e-6)

    def test_probe_below_floor_rebuilds(self):
        from repro.obs import Tracer
        from repro.retime.fastcheck import FeasibilityChecker

        g = random_circuit("pv", n_units=30, n_ffs=16, seed=4)
        wd = wd_matrices(g)
        tracer = Tracer()
        checker = FeasibilityChecker.build(g, wd, tracer=tracer)
        high = clock_period(g, wd)
        low = wd.max_vertex_delay()
        checker.check(high)
        table = checker.witness
        assert table.floor == high
        checker.check(high + 1.0)  # above the floor: the same table
        assert checker.witness is table
        checker.check(low)  # below it: rebuilt at the new period
        assert checker.witness is not table and checker.witness.floor == low
        checker.check(high)
        builds = [s for s in tracer.spans if s.name == "feas/witness"]
        assert [s.attrs["floor"] for s in builds] == [high, low]
        for span, floor in zip(builds, (high, low)):
            pairs = _pair_list(wd, floor)
            assert span.attrs["pairs"] == len(pairs)
            kept = prune_reference(wd, floor, pairs)
            assert span.attrs["kept_at_floor"] == len(kept)

    def test_chunked_table_unchanged(self, monkeypatch):
        # Chunk edges must not leak into M: every pair's value, not
        # only the kept rows, is the same.
        import repro.retime.constraints as constraints_mod
        from repro.retime.constraints import WitnessTable, _witness_delays

        g = random_circuit("pv", n_units=30, n_ffs=16, seed=8)
        wd = wd_matrices(g)
        floor = wd.max_vertex_delay()
        flat = np.flatnonzero(wd.exceeding(floor))
        whole = _witness_delays(wd, flat)
        table = WitnessTable.build(wd, floor)
        monkeypatch.setattr(constraints_mod, "_PRUNE_CHUNK", 7)
        assert flat.size > 7
        assert np.array_equal(_witness_delays(wd, flat), whole)
        chunked = WitnessTable.build(wd, floor)
        for t in (floor, 0.5 * (floor + clock_period(g, wd))):
            assert np.array_equal(chunked.rows(t), table.rows(t))

    @pytest.mark.parametrize("name", ["s298", "s1269", "s5378"])
    def test_checker_arcs_at_t_clk_equal_system_rows(self, name):
        # The search leaves its checker's table at or below T_min; the
        # checker's rows at T_clk must be the constraint table's.
        from repro.experiments.fixtures import prepared_instance
        from repro.retime.fastcheck import FeasibilityChecker, group_arcs

        inst = prepared_instance(name)
        system = inst.system
        checker = FeasibilityChecker.build(inst.expanded.graph, inst.wd)
        checker.cover(inst.t_min)
        assert checker.witness.floor == inst.t_min < inst.t_clk
        rows = system.constraints
        assert np.array_equal(
            checker.witness.rows(inst.t_clk), rows[system.n_static :]
        )
        expected = group_arcs(checker.n, rows["u"], rows["v"], rows["bound"])
        got = checker._probe_arcs(inst.t_clk)
        for a, b in zip(got, expected):
            assert np.array_equal(a, b)
