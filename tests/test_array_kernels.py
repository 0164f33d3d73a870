"""Property tests: array kernels must match their reference paths.

The annealer, the FM pass and the sequence-pair packer each ship an
array-backed fast path; the tests compare it with an object-based
reference (the annealer's lives in ``tests/oracles/annealer.py``) and
assert bit-identical agreement — not approximate agreement — because
benchmark reproducibility (BENCH_N result files) depends on the fast
paths producing the exact same trajectories.
"""

import random
from typing import Dict, List, Set, Tuple

import pytest

from repro.floorplan.annealer import SequencePairAnnealer, anneal_multistart
from repro.floorplan.blocks import Block
from repro.floorplan.sequence_pair import overlaps, pack, pack_arrays
from repro.partition.fm import FMBipartitioner
from tests.oracles.annealer import ObjectAnnealer


def random_blocks(n_blocks: int, seed: int):
    r = random.Random(seed)
    blocks = []
    for k in range(n_blocks):
        if r.random() < 0.2:
            blocks.append(
                Block(
                    f"B{k}",
                    unit_area=r.uniform(5.0, 80.0),
                    hard=True,
                    whitespace=0.05,
                    site_capacity=1.0,
                )
            )
        else:
            blocks.append(
                Block(
                    f"B{k}",
                    unit_area=r.uniform(5.0, 80.0),
                    whitespace=r.uniform(0.1, 0.5),
                )
            )
    pairs = []
    for _ in range(n_blocks * 3):
        a, b = r.randrange(n_blocks), r.randrange(n_blocks)
        if a != b:
            pairs.append((f"B{a}", f"B{b}", r.randint(1, 9)))
    return blocks, pairs


class TestAnnealerPathsAgree:
    @pytest.mark.parametrize("seed", range(6))
    def test_incremental_matches_reference(self, seed):
        blocks, pairs = random_blocks(2 + seed * 2, seed)
        inc = SequencePairAnnealer(blocks, pairs, seed=seed)
        ref = ObjectAnnealer(blocks, pairs, seed=seed)
        result_inc = inc.run(iterations=300)
        result_ref = ref.run(iterations=300)
        assert result_inc == result_ref
        assert inc.best_cost == ref.best_cost
        assert inc.best_sequences == ref.best_sequences
        assert inc.best_blocks == ref.best_blocks

    def test_incremental_result_never_overlaps(self):
        blocks, pairs = random_blocks(9, 42)
        annealer = SequencePairAnnealer(blocks, pairs, seed=7)
        placements, _w, _h = annealer.run(iterations=500)
        assert not overlaps(placements)


class TestPackArrays:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_reference_pack(self, seed):
        blocks, _pairs = random_blocks(3 + seed, seed)
        by_name = {b.name: b for b in blocks}
        names = sorted(by_name)
        r = random.Random(seed)
        gp = list(names)
        gm = list(names)
        r.shuffle(gp)
        r.shuffle(gm)
        ref_pl, ref_w, ref_h = pack(gp, gm, by_name)
        arr_pl, arr_w, arr_h = pack_arrays(gp, gm, by_name)
        assert arr_pl == ref_pl
        assert (arr_w, arr_h) == (ref_w, ref_h)
        assert not overlaps(arr_pl)

    def test_rejects_mismatched_sequences(self):
        from repro.errors import FloorplanError

        blocks, _ = random_blocks(3, 0)
        by_name = {b.name: b for b in blocks}
        with pytest.raises(FloorplanError):
            pack_arrays(["B0"], ["B0", "B1"], by_name)


def _reference_fm_pass(
    fm: FMBipartitioner, side: Dict[str, int]
) -> Tuple[bool, Dict[str, int]]:
    """The historical dict-based FM pass, kept verbatim as the oracle."""
    side = dict(side)
    area = [0.0, 0.0]
    for c in fm.cells:
        area[side[c]] += fm.areas[c]
    locked: Set[str] = set()
    history: List[Tuple[str, int]] = []
    cum_gain = 0
    best_prefix = 0
    best_gain = 0

    for _ in range(len(fm.cells)):
        best_cell = None
        best_cell_gain = None
        for c in fm.cells:
            if c in locked:
                continue
            target = 1 - side[c]
            if area[target] + fm.areas[c] > fm.max_side_area:
                continue
            g = fm._gain(c, side)
            if best_cell_gain is None or g > best_cell_gain:
                best_cell = c
                best_cell_gain = g
        if best_cell is None:
            break
        locked.add(best_cell)
        s = side[best_cell]
        area[s] -= fm.areas[best_cell]
        area[1 - s] += fm.areas[best_cell]
        side[best_cell] = 1 - s
        cum_gain += best_cell_gain
        history.append((best_cell, best_cell_gain))
        if cum_gain > best_gain:
            best_gain = cum_gain
            best_prefix = len(history)

    for cell, _g in history[best_prefix:]:
        side[cell] = 1 - side[cell]
    return best_gain > 0, side


def random_fm_instance(seed: int) -> FMBipartitioner:
    r = random.Random(seed)
    n = r.randint(4, 40)
    cells = [f"c{k}" for k in range(n)]
    areas = {c: r.uniform(0.5, 4.0) for c in cells}
    nets = []
    for _ in range(r.randint(2, 3 * n)):
        size = r.randint(2, min(5, n))
        nets.append(set(r.sample(cells, size)))
    return FMBipartitioner(cells, areas, nets, rng=random.Random(seed + 1))


class TestFMArrayPassAgrees:
    @pytest.mark.parametrize("seed", range(10))
    def test_one_pass_matches_reference(self, seed):
        fm = random_fm_instance(seed)
        side = fm._initial_partition()
        for _ in range(3):
            ref_improved, ref_side = _reference_fm_pass(fm, side)
            arr_improved, arr_side = fm._one_pass(side)
            assert arr_improved == ref_improved
            assert arr_side == ref_side
            assert fm.cut_size(arr_side) == fm.cut_size(ref_side)
            side = arr_side

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_full_run_cut_matches_reference_driver(self, seed):
        fm_a = random_fm_instance(seed)
        side_a = fm_a.run()
        fm_b = random_fm_instance(seed)
        side_b = fm_b._initial_partition()
        best = dict(side_b)
        best_cut = fm_b.cut_size(side_b)
        for _ in range(8):
            improved, side_b = _reference_fm_pass(fm_b, side_b)
            if fm_b.cut_size(side_b) < best_cut:
                best_cut = fm_b.cut_size(side_b)
                best = dict(side_b)
            if not improved:
                break
        assert side_a == best
        assert fm_a.cut_size(side_a) == best_cut


class TestMultistart:
    def test_single_replica_is_plain_annealer(self):
        blocks, pairs = random_blocks(8, 11)
        seqs, blks, cost = anneal_multistart(
            blocks, pairs, seed=3, iterations=250, replicas=1
        )
        annealer = SequencePairAnnealer(blocks, pairs, seed=3)
        annealer.run(iterations=250)
        assert seqs == annealer.best_sequences
        assert blks == annealer.best_blocks
        assert cost == annealer.best_cost

    def test_jobs_do_not_change_result(self):
        blocks, pairs = random_blocks(8, 12)
        serial = anneal_multistart(
            blocks, pairs, seed=5, iterations=200, replicas=3, jobs=1
        )
        parallel = anneal_multistart(
            blocks, pairs, seed=5, iterations=200, replicas=3, jobs=2
        )
        assert serial == parallel

    def test_more_replicas_never_worse(self):
        blocks, pairs = random_blocks(10, 13)
        _s1, _b1, single = anneal_multistart(
            blocks, pairs, seed=1, iterations=250, replicas=1
        )
        _s4, _b4, multi = anneal_multistart(
            blocks, pairs, seed=1, iterations=250, replicas=4
        )
        assert multi <= single
