"""Unit tests for FM internals (gain computation, pass mechanics)."""

import random

from repro.partition import FMBipartitioner
from tests.oracles.fm import gain


def make_fm(nets, cells=None, balance=0.6, seed=0):
    cells = cells if cells is not None else sorted({c for n in nets for c in n})
    areas = {c: 1.0 for c in cells}
    return FMBipartitioner(cells, areas, nets, balance=balance, rng=random.Random(seed))


class TestGain:
    def test_uncutting_net_gains(self):
        fm = make_fm([{"a", "b"}])
        side = {"a": 0, "b": 1}
        # moving a to side 1 uncuts the net
        assert gain(fm, "a", side) == 1

    def test_cutting_net_loses(self):
        fm = make_fm([{"a", "b"}])
        side = {"a": 0, "b": 0}
        assert gain(fm, "a", side) == -1

    def test_mixed_net_neutral(self):
        fm = make_fm([{"a", "b", "c"}])
        side = {"a": 0, "b": 0, "c": 1}
        # moving a: net stays cut either way
        assert gain(fm, "a", side) == 0

    def test_gain_equals_cut_delta(self):
        rng = random.Random(3)
        cells = [f"c{i}" for i in range(8)]
        nets = [set(rng.sample(cells, rng.randint(2, 4))) for _ in range(10)]
        fm = make_fm(nets, cells=cells)
        side = {c: rng.randint(0, 1) for c in cells}
        for cell in cells:
            before = fm.cut_size(side)
            flipped = dict(side)
            flipped[cell] = 1 - flipped[cell]
            after = fm.cut_size(flipped)
            assert gain(fm, cell, side) == before - after


class TestBalanceTolerance:
    def test_exact_balance_still_moves(self):
        """Regression: a perfectly balanced start must not deadlock."""
        nets = [{"a", "b"}, {"c", "d"}, {"a", "c"}]
        fm = make_fm(nets, balance=0.5)
        side = fm.run()
        # tolerance of one cell => passes can move; result is valid
        assert set(side.values()) <= {0, 1}
        counts = [sum(1 for v in side.values() if v == s) for s in (0, 1)]
        assert abs(counts[0] - counts[1]) <= 2

    def test_run_improves_or_matches_initial(self):
        rng = random.Random(5)
        cells = [f"c{i}" for i in range(16)]
        nets = [set(rng.sample(cells, rng.randint(2, 5))) for _ in range(20)]
        fm = make_fm(nets, cells=cells, seed=5)
        initial = fm._initial_partition()
        final = fm.run()
        assert fm.cut_size(final) <= fm.cut_size(initial)
