"""Tests for FM bipartitioning and multiway partitioning."""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import NetlistError
from repro.experiments.circuits import TABLE1_CIRCUITS
from repro.netlist import random_circuit
from repro.partition import (
    FMBipartitioner,
    default_block_count,
    partition_graph,
)


def clique_pair_instance():
    """Two 4-cliques joined by a single net — obvious optimal cut of 1."""
    left = [f"l{i}" for i in range(4)]
    right = [f"r{i}" for i in range(4)]
    nets = []
    for group in (left, right):
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                nets.append({group[i], group[j]})
    nets.append({"l0", "r0"})
    areas = {c: 1.0 for c in left + right}
    return left + right, areas, nets


class TestFM:
    def test_separates_cliques(self):
        cells, areas, nets = clique_pair_instance()
        fm = FMBipartitioner(cells, areas, nets, rng=random.Random(1))
        side = fm.run()
        left_sides = {side[c] for c in cells if c.startswith("l")}
        right_sides = {side[c] for c in cells if c.startswith("r")}
        assert len(left_sides) == 1
        assert len(right_sides) == 1
        assert left_sides != right_sides
        assert fm.cut_size(side) == 1

    def test_respects_balance(self):
        cells, areas, nets = clique_pair_instance()
        fm = FMBipartitioner(cells, areas, nets, balance=0.6, rng=random.Random(0))
        side = fm.run()
        area0 = sum(areas[c] for c in cells if side[c] == 0)
        total = sum(areas.values())
        assert area0 <= 0.6 * total + 1e-9
        assert total - area0 <= 0.6 * total + 1e-9

    def test_cut_size_counts_cut_nets(self):
        fm = FMBipartitioner(
            ["a", "b"], {"a": 1, "b": 1}, [{"a", "b"}], rng=random.Random(0)
        )
        assert fm.cut_size({"a": 0, "b": 1}) == 1
        assert fm.cut_size({"a": 0, "b": 0}) == 0

    def test_single_cell_nets_ignored(self):
        fm = FMBipartitioner(["a"], {"a": 1}, [{"a"}], rng=random.Random(0))
        assert fm.nets == []


class TestMultiway:
    def test_partition_counts(self):
        g = random_circuit("p", n_units=60, n_ffs=30, seed=0)
        part = partition_graph(g, 6, seed=0)
        assert part.n_blocks == 6
        hosts = set(g.host_units())
        assert set(part.assignment) == set(g.units()) - hosts

    def test_blocks_nonempty_and_balanced(self):
        g = random_circuit("p", n_units=80, n_ffs=40, seed=1)
        part = partition_graph(g, 8, seed=1)
        areas = [part.block_area(g, b) for b in range(part.n_blocks)]
        assert all(a > 0 for a in areas)
        assert max(areas) <= 6 * min(areas)  # loose balance bound

    def test_cut_reported(self):
        g = random_circuit("p", n_units=40, n_ffs=20, seed=2)
        part = partition_graph(g, 4, seed=2)
        cut = part.cut_connections(g)
        assert 0 < cut < g.num_connections

    def test_too_few_units_raises(self):
        g = random_circuit("p", n_units=3, n_ffs=2, seed=0)
        with pytest.raises(NetlistError):
            partition_graph(g, 10)

    def test_deterministic(self):
        g = random_circuit("p", n_units=50, n_ffs=20, seed=3)
        a = partition_graph(g, 5, seed=7).assignment
        b = partition_graph(g, 5, seed=7).assignment
        assert a == b

    def test_default_block_count_bounds(self):
        assert default_block_count(10) == 4
        assert 4 <= default_block_count(400) <= 24
        assert default_block_count(100000) == 24


def table1_partition(spec):
    """``spec``'s partition as the planner makes it (block count, seed)."""
    graph = spec.build()
    n_units = graph.num_units - len(graph.host_units())
    n_blocks = spec.n_blocks or default_block_count(n_units)
    return partition_graph(graph, n_blocks, seed=spec.seed)


#: sha256 prefix of every Table-1 circuit's sorted assignment, pinned
#: when FM still ran as a numpy pass; a kernel change must keep it.
TABLE1_PARTITION_DIGEST = "7a6ea3f75187d278"

_PARTITION_PROBE = """
import json
from repro.experiments.circuits import get_circuit
from repro.partition import partition_graph
graph = get_circuit("s298").build()
print(json.dumps(sorted(partition_graph(graph, 6, seed=298).assignment.items())))
"""


class TestGoldenPartitions:
    def test_table1_partitions_unchanged(self):
        assignments = {
            spec.name: sorted(table1_partition(spec).assignment.items())
            for spec in TABLE1_CIRCUITS
        }
        digest = hashlib.sha256(json.dumps(assignments).encode()).hexdigest()
        assert digest[:16] == TABLE1_PARTITION_DIGEST

    def test_independent_of_hash_seed(self):
        """Net order and pin layout come from sorted names, so two
        interpreters with different string hashing agree."""
        src = Path(__file__).resolve().parent.parent / "src"
        runs = [
            subprocess.run(
                [sys.executable, "-c", _PARTITION_PROBE],
                env=dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed),
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            ).stdout
            for seed in ("0", "1")
        ]
        assert runs[0] and runs[0] == runs[1]
