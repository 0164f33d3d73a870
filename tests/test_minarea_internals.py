"""Unit tests for min-area retiming internals (objective, normalisation)."""

import pytest

from repro.netlist import CircuitGraph, HOST_SNK, HOST_SRC
from repro.retime import (
    IncrementalMinArea,
    build_constraint_system,
    clock_period,
    normalise_labels,
)
from repro.retime.minarea import WEIGHT_SCALE


def coefficients(g, weights=None):
    """The shipped solver's objective coefficients, by unit name."""
    system = build_constraint_system(g, clock_period(g))
    coeff = IncrementalMinArea(g, system).objective_coefficients(weights)
    return dict(zip(system.compiled.order, coeff.tolist()))


def chain_with_hosts():
    g = CircuitGraph()
    src, snk = g.ensure_hosts()
    for name in "abc":
        g.add_unit(name, delay=1.0)
    g.add_connection(src, "a", weight=1)
    g.add_connection("a", "b", weight=0)
    g.add_connection("b", "c", weight=1)
    g.add_connection("c", snk, weight=1)
    return g


class TestObjective:
    def test_uniform_coefficients(self):
        g = chain_with_hosts()
        coeffs = coefficients(g)
        # c_v = |FI(v)| - |FO(v)| with unit weights
        assert coeffs["a"] == 0  # one in, one out
        assert coeffs[HOST_SRC] == -1
        assert coeffs[HOST_SNK] == 1
        assert sum(coeffs.values()) == 0

    def test_weighted_coefficients_scale(self):
        g = chain_with_hosts()
        coeffs = coefficients(g, weights={u: 1.0 for u in g.units()})
        assert coeffs[HOST_SNK] == WEIGHT_SCALE
        assert sum(coeffs.values()) == 0

    def test_small_weights_clamped_positive(self):
        g = chain_with_hosts()
        coeffs = coefficients(g, weights={u: 1e-9 for u in g.units()})
        # clamped to >= 1 per unit: coefficients stay non-degenerate
        assert coeffs[HOST_SNK] >= 1
        assert sum(coeffs.values()) == 0

    def test_parallel_edges_count_twice(self):
        g = CircuitGraph()
        g.add_unit("a", delay=1.0)
        g.add_unit("b", delay=1.0)
        g.add_connection("a", "b", weight=0)
        g.add_connection("a", "b", weight=1)
        coeffs = coefficients(g)
        assert coeffs["b"] == 2
        assert coeffs["a"] == -2


class TestNormaliseLabels:
    def test_shifts_host_component_to_zero(self):
        g = chain_with_hosts()
        labels = {u: 5 for u in g.units()}
        out = normalise_labels(g, labels)
        assert out[HOST_SRC] == 0
        assert out[HOST_SNK] == 0
        assert out["a"] == 0  # same component, same shift

    def test_component_without_host_untouched(self):
        g = CircuitGraph()
        g.add_unit("x", delay=1.0)
        g.add_unit("y", delay=1.0)
        g.add_connection("x", "y", weight=1)
        labels = {"x": 7, "y": 8}
        assert normalise_labels(g, labels) == labels

    def test_two_components_shift_independently(self):
        g = chain_with_hosts()
        g.add_unit("island", delay=1.0)
        labels = {u: 3 for u in g.units()}
        labels["island"] = 42
        out = normalise_labels(g, labels)
        assert out[HOST_SRC] == 0
        assert out["island"] == 42  # disconnected, left alone

    def test_preserves_differences(self):
        g = chain_with_hosts()
        labels = {HOST_SRC: 2, HOST_SNK: 2, "a": 3, "b": 1, "c": 2}
        out = normalise_labels(g, labels)
        for u in ("a", "b", "c"):
            assert out[u] - out[HOST_SRC] == labels[u] - labels[HOST_SRC]
