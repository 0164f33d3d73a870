"""``prepared_instance`` freezes exactly what the hand-wired flow froze.

The fixture now takes its physical context from one planner iteration;
:mod:`tests.oracles.prepared` keeps the stage-by-stage wiring it
replaced. Every field an ablation reads must agree.
"""

from __future__ import annotations

import pytest

from repro.experiments.fixtures import prepared_instance
from repro.netlist.io import graph_to_dict
from tests.oracles.prepared import hand_wired_instance


@pytest.fixture(scope="module", params=["s298", "s386"])
def pair(request):
    return prepared_instance(request.param), hand_wired_instance(request.param)


def test_periods_match(pair):
    got, want = pair
    assert (got.t_init, got.t_min, got.t_clk) == (want.t_init, want.t_min, want.t_clk)


def test_expanded_circuit_matches(pair):
    got, want = pair
    assert graph_to_dict(got.expanded.graph) == graph_to_dict(want.expanded.graph)
    assert got.expanded.unit_region == want.expanded.unit_region


def test_physical_context_matches(pair):
    got, want = pair
    assert got.grid.used == want.grid.used
    assert got.grid.capacity == want.grid.capacity
    assert got.floorplan.placements == want.floorplan.placements


def test_constraints_match(pair):
    got, want = pair
    assert got.system.period == want.system.period
    assert got.system.constraints == want.system.constraints
