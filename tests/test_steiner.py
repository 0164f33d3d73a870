"""Tests for rectilinear Steiner tree construction."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.route import (
    hanan_points,
    manhattan,
    spanning_tree,
    steiner_tree,
    tree_length,
    tree_paths,
)
from tests.oracles.steiner import steiner_tree as reference_steiner_tree


class TestSpanningTree:
    def test_two_points(self):
        edges = spanning_tree([(0, 0), (3, 4)])
        assert edges == [((0, 0), (3, 4))]
        assert tree_length(edges) == 7

    def test_single_point(self):
        assert spanning_tree([(1, 1)]) == []

    def test_duplicates_collapsed(self):
        assert spanning_tree([(0, 0), (0, 0)]) == []

    def test_connects_all_points(self):
        rng = random.Random(4)
        pts = [(rng.randrange(20), rng.randrange(20)) for _ in range(12)]
        pts = list(dict.fromkeys(pts))
        edges = spanning_tree(pts)
        assert len(edges) == len(pts) - 1
        # connectivity check
        adj = {}
        for a, b in edges:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        seen = {pts[0]}
        stack = [pts[0]]
        while stack:
            p = stack.pop()
            for q in adj.get(p, []):
                if q not in seen:
                    seen.add(q)
                    stack.append(q)
        assert seen == set(pts)


class TestSteiner:
    def test_l_shape_three_pins(self):
        """Classic: 3 corner pins admit a Steiner point saving length."""
        pins = [(0, 0), (4, 0), (2, 3)]
        mst_len = tree_length(spanning_tree(pins))
        st = steiner_tree(pins)
        assert tree_length(st) <= mst_len

    def test_cross_four_pins_improves(self):
        pins = [(0, 2), (4, 2), (2, 0), (2, 4)]
        st_len = tree_length(steiner_tree(pins))
        mst_len = tree_length(spanning_tree(pins))
        assert st_len < mst_len
        assert st_len == 8  # star through the centre

    def test_never_longer_than_mst(self):
        rng = random.Random(9)
        for _ in range(10):
            pins = list(
                {(rng.randrange(15), rng.randrange(15)) for _ in range(6)}
            )
            if len(pins) < 2:
                continue
            assert tree_length(steiner_tree(pins)) <= tree_length(
                spanning_tree(pins)
            )

    def test_hanan_points_exclude_pins(self):
        pins = [(0, 0), (2, 3)]
        pts = hanan_points(pins)
        assert (0, 3) in pts and (2, 0) in pts
        assert (0, 0) not in pts


class TestTreePaths:
    def test_paths_reach_targets(self):
        pins = [(0, 0), (4, 0), (2, 3)]
        edges = steiner_tree(pins)
        paths = tree_paths(edges, (0, 0), [(4, 0), (2, 3)])
        for target, path in paths.items():
            assert path[0] == (0, 0)
            assert path[-1] == target

    def test_root_target(self):
        edges = steiner_tree([(0, 0), (1, 1)])
        paths = tree_paths(edges, (0, 0), [(0, 0)])
        assert paths[(0, 0)] == [(0, 0)]


class TestSteinerProperties:
    """Length bounds: HPWL <= Steiner <= MST for any pin set."""

    def hpwl(self, pins):
        xs = [p[0] for p in pins]
        ys = [p[1] for p in pins]
        return (max(xs) - min(xs)) + (max(ys) - min(ys))

    def test_length_sandwich(self):
        rng = random.Random(17)
        for _ in range(25):
            pins = list(
                {(rng.randrange(25), rng.randrange(25)) for _ in range(rng.randint(2, 9))}
            )
            if len(pins) < 2:
                continue
            st = tree_length(steiner_tree(pins))
            mst = tree_length(spanning_tree(pins))
            assert self.hpwl(pins) <= st <= mst

    def test_collinear_pins_exact(self):
        pins = [(0, 0), (3, 0), (7, 0), (12, 0)]
        assert tree_length(steiner_tree(pins)) == 12

    def test_rectangle_corners(self):
        pins = [(0, 0), (5, 0), (0, 4), (5, 4)]
        st = tree_length(steiner_tree(pins))
        assert st == 5 + 4 + min(5, 4)  # two rails + one crossbar


coords = st.integers(min_value=0, max_value=12)
pin_lists = st.lists(st.tuples(coords, coords), min_size=1, max_size=14)


@st.composite
def nets(draw):
    """Pin lists as the router sees them: driver first, repeats allowed,
    sometimes all on one row or column."""
    pins = draw(pin_lists)
    shape = draw(st.sampled_from(["free", "row", "column"]))
    if shape == "row":
        pins = [(x, pins[0][1]) for x, _ in pins]
    elif shape == "column":
        pins = [(pins[0][0], y) for _, y in pins]
    extra = draw(st.lists(st.sampled_from(pins), max_size=3))
    return pins + extra


class TestAgainstReference:
    """The batched candidate scoring against one Prim per candidate
    (tests/oracles/steiner.py): same edges, in the same order."""

    @settings(max_examples=300, deadline=None)
    @given(nets())
    def test_same_edges_in_same_order(self, pins):
        assert steiner_tree(pins) == reference_steiner_tree(pins)

    @settings(max_examples=100, deadline=None)
    @given(st.tuples(coords, coords), st.tuples(coords, coords))
    def test_two_pin_nets(self, a, b):
        assert steiner_tree([a, b]) == reference_steiner_tree([a, b])
        assert steiner_tree([a, b, a]) == reference_steiner_tree([a, b, a])

    @pytest.mark.parametrize("seed", range(6))
    def test_rounds_that_add_several_points(self, seed):
        rng = random.Random(seed)
        pins = [(rng.randrange(30), rng.randrange(30)) for _ in range(14)]
        assert steiner_tree(pins) == reference_steiner_tree(pins)

    @pytest.mark.parametrize(
        "pins",
        [
            [(0, 0), (3, 0), (7, 0), (12, 0)],  # collinear: at the half-perimeter
            [(0, 0), (5, 0), (0, 4), (5, 4)],  # rectangle corners: above it
        ],
    )
    def test_nets_without_candidates(self, pins):
        assert hanan_points(pins) == set()
        assert steiner_tree(pins) == reference_steiner_tree(pins)


class TestLargeNetMemory:
    """Candidates are scored as rows of (K, n + 1) arrays: a 60-pin net
    has K = 3,540 Hanan points, so one array is 1.7 MB, while a (K, n + 1,
    n + 1) distance tensor would be 105 MB."""

    PEAK_BOUND_BYTES = 32 * 2**20

    def test_sixty_pins_within_bound(self):
        rng = random.Random(60)
        xs = rng.sample(range(200), 60)
        ys = rng.sample(range(200), 60)
        pins = list(zip(xs, ys))
        assert len(hanan_points(pins)) == 60 * 60 - 60
        tracemalloc.start()
        try:
            edges = steiner_tree(pins)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < self.PEAK_BOUND_BYTES
        assert len({p for e in edges for p in e} & set(pins)) == 60
        assert tree_length(edges) <= tree_length(spanning_tree(pins))
