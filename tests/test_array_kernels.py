"""Property tests: array kernels must match their reference paths.

The annealer and the sequence-pair packer each ship an array-backed
fast path, the FM pass an integer one; the tests compare each with an
object-based reference (the annealer's and the FM pass's live in ``tests/oracles/``)
and assert bit-identical agreement — not approximate agreement — because
benchmark reproducibility (BENCH_N result files) depends on the fast
paths producing the exact same trajectories.
"""

import random

import pytest

from repro.floorplan.annealer import SequencePairAnnealer, anneal_multistart
from repro.floorplan.blocks import Block
from repro.floorplan.sequence_pair import overlaps, pack, pack_arrays
from repro.experiments.circuits import get_circuit
from repro.partition.fm import FMBipartitioner
from repro.partition.multiway import _nets_from_graph
from tests.oracles.annealer import ObjectAnnealer
from tests.oracles.fm import reference_fm_pass, reference_moves


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


def random_fm_instance(seed: int, balance: float = 0.6) -> FMBipartitioner:
    r = random.Random(seed)
    n = r.randint(4, 40)
    cells = [f"c{k}" for k in range(n)]
    areas = {c: r.uniform(0.5, 4.0) for c in cells}
    nets = []
    for _ in range(r.randint(2, 3 * n)):
        size = r.randint(2, min(5, n))
        nets.append(set(r.sample(cells, size)))
    return FMBipartitioner(
        cells, areas, nets, balance=balance, rng=random.Random(seed + 1)
    )


def tight_fm_instance(seed: int) -> FMBipartitioner:
    """A perfect-balance instance whose cell areas span 1 to 6 units,
    so the heaviest cells often cannot move when they gain the most."""
    r = random.Random(seed)
    n = r.randint(12, 40)
    cells = [f"c{k}" for k in range(n)]
    areas = {c: float(r.choice([1, 1, 2, 3, 6])) for c in cells}
    nets = [set(r.sample(cells, r.randint(2, 4))) for _ in range(2 * n)]
    return FMBipartitioner(
        cells, areas, nets, balance=0.5, rng=random.Random(seed + 1)
    )


def first_bisection(name: str) -> FMBipartitioner:
    """The first FM instance ``partition_graph`` builds for a Table-1
    circuit with the planner's seed."""
    spec = get_circuit(name)
    graph = spec.build()
    hosts = set(graph.host_units())
    units = [u for u in graph.units() if u not in hosts]
    areas = {u: max(graph.area(u), 1e-9) for u in units}
    nets = _nets_from_graph(graph, set(units))
    return FMBipartitioner(
        sorted(units), areas, nets, balance=0.65, rng=random.Random(spec.seed)
    )


def assert_passes_match(fm: FMBipartitioner, passes: int = 3) -> None:
    """``passes`` chained passes from the initial partition: the same
    moves in the same order, the same kept prefix and a cut that
    equals a recount."""
    side = fm._initial_partition()
    for _ in range(passes):
        cut, moves = fm._moves(side)
        assert cut == fm.cut_size(side)
        assert moves == reference_moves(fm, side)
        ref_improved, ref_side = reference_fm_pass(fm, side)
        improved, side, cut = fm._one_pass(side)
        assert improved == ref_improved
        assert side == ref_side
        assert cut == fm.cut_size(side)


class TestFMArrayPassAgrees:
    @pytest.mark.parametrize("seed", range(10))
    def test_one_pass_matches_reference(self, seed):
        assert_passes_match(random_fm_instance(seed))

    @pytest.mark.parametrize("seed", range(6))
    def test_tight_balance_matches_reference(self, seed):
        fm = tight_fm_instance(seed)
        side = fm._initial_partition()
        blocked = []
        reference_moves(fm, side, blocked)
        # The balance bound overrules the best gain at least once, so
        # the kernel's set-aside path runs.
        assert blocked
        assert_passes_match(fm)

    @pytest.mark.parametrize("name", ["s298", "s1269"])
    def test_first_bisection_matches_reference(self, name):
        assert_passes_match(first_bisection(name))

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_full_run_cut_matches_reference_driver(self, seed):
        fm_a = random_fm_instance(seed)
        side_a = fm_a.run()
        fm_b = random_fm_instance(seed)
        side_b = fm_b._initial_partition()
        best = dict(side_b)
        best_cut = fm_b.cut_size(side_b)
        for _ in range(8):
            improved, side_b = reference_fm_pass(fm_b, side_b)
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
