"""Property-based tests (hypothesis) for core invariants.

Random well-formed retiming graphs are generated structurally (forward
DAG edges with weight >= 0, feedback edges with weight >= 1, so every
cycle carries a register) and the library's key invariants are checked
on them:

* W/D fast path == the tuple Bellman–Ford oracle;
* a min-area retiming at T_init never increases the flip-flop count,
  keeps all weights non-negative, and preserves every cycle's weight;
* the shipped feasibility checker agrees with the constraint-object
  oracle;
* retiming labels produced by any solver satisfy the constraint system
  they were solved under.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.netlist import CircuitGraph
from repro.retime import (
    IncrementalMinArea,
    build_constraint_system,
    clock_period,
    min_area_retiming,
    min_period_retiming,
    wd_matrices,
)
from repro.retime.fastcheck import FeasibilityChecker
from tests.oracles.constraints import named_constraints, unpruned_system
from tests.oracles.feasibility import is_feasible_period
from tests.oracles.graph import cycle_conservation_witnesses
from tests.oracles.wd import wd_matrices_reference


@st.composite
def circuits(draw, max_units=14):
    """A random well-formed retiming graph."""
    n = draw(st.integers(min_value=2, max_value=max_units))
    g = CircuitGraph("hyp")
    delays = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=9.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    for i in range(n):
        g.add_unit(f"u{i}", delay=delays[i])
    # spanning chain keeps the graph connected
    for i in range(n - 1):
        g.add_connection(f"u{i}", f"u{i+1}", weight=draw(st.integers(0, 2)))
    extra = draw(st.integers(min_value=0, max_value=2 * n))
    for _ in range(extra):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        if i == j:
            continue
        if i < j:
            g.add_connection(f"u{i}", f"u{j}", weight=draw(st.integers(0, 2)))
        else:
            g.add_connection(f"u{i}", f"u{j}", weight=draw(st.integers(1, 3)))
    return g


@settings(max_examples=40, deadline=None)
@given(circuits())
def test_wd_fast_matches_reference(g):
    import numpy as np

    fast = wd_matrices(g)
    ref = wd_matrices_reference(g)
    both = np.isfinite(fast.w)
    assert (both == np.isfinite(ref.w)).all()
    assert np.array_equal(fast.w[both], ref.w[both])
    assert np.allclose(fast.d[both], ref.d[both])


@settings(max_examples=30, deadline=None)
@given(circuits())
def test_min_area_invariants(g):
    t_init = clock_period(g)
    result = min_area_retiming(g, period=t_init)
    # never worse than the identity retiming
    assert result.total_ffs <= g.total_flip_flops()
    # meets the period
    assert clock_period(result.graph) <= t_init + 1e-6
    # all weights legal (retimed() enforces, but double-check)
    assert all(w >= 0 for _c, w in result.graph.connections())
    # register conservation around cycles
    assert not cycle_conservation_witnesses(g, result.graph)


@settings(max_examples=30, deadline=None)
@given(circuits())
def test_min_period_result_is_feasible_and_tight(g):
    t_min, result = min_period_retiming(g)
    t_init = clock_period(g)
    assert t_min <= t_init + 1e-9
    assert clock_period(result.graph) <= t_min + 1e-6
    # nothing below t_min among candidates is feasible (checker agrees)
    wd = wd_matrices(g)
    assert is_feasible_period(g, t_min, wd) is not None


@settings(max_examples=30, deadline=None)
@given(circuits(), st.floats(min_value=0.1, max_value=1.0))
def test_checkers_agree(g, frac):
    wd = wd_matrices(g)
    period = frac * max(clock_period(g, wd), 1e-6)
    fast = FeasibilityChecker.build(g, wd).check(period)
    slow = is_feasible_period(g, period, wd)
    assert (fast is None) == (slow is None)


@settings(max_examples=25, deadline=None)
@given(circuits())
def test_solver_labels_satisfy_their_constraints(g):
    # The shipped rows are pruned: the labels must meet every row of
    # the unpruned system too.
    t_init = clock_period(g)
    solver = IncrementalMinArea(g, build_constraint_system(g, t_init))
    labels = min_area_retiming(g, period=t_init, solver=solver).labels
    for c in named_constraints(unpruned_system(g, t_init)):
        assert labels.get(c.u, 0) - labels.get(c.v, 0) <= c.bound


@settings(max_examples=25, deadline=None)
@given(circuits())
def test_pruning_never_changes_min_area_optimum(g):
    t_init = clock_period(g)
    plain = min_area_retiming(
        g, period=t_init, solver=IncrementalMinArea(g, unpruned_system(g, t_init))
    )
    pruned = min_area_retiming(g, period=t_init)
    assert plain.total_ffs == pruned.total_ffs
