"""Simulated-annealing sequence-pair floorplanner.

Cost blends chip area with half-perimeter wirelength of the inter-block
connectivity, the standard objective for interconnect-driven
floorplanning. Moves: swap a random pair in one sequence, swap in both
sequences, or reshape a random soft block's aspect ratio.

The annealer keeps positions, dimensions and net endpoints in flat
numpy arrays (:class:`~repro.floorplan.sequence_pair.ArrayPacker`),
re-packs only the ``gamma_minus`` suffix a move disturbs, and evaluates
wirelength as one vectorised gather over a precomputed net-pair index
array. Every float is produced by the same arithmetic expressions as
the historical object implementation (a full
:func:`~repro.floorplan.sequence_pair.pack` plus a per-net loop), so
costs — and therefore the annealing trajectory, acceptance decisions
and the best floorplan — are bit-identical to it. The test suite keeps
that implementation in ``tests/oracles/annealer.py`` and compares the
two.

Degenerate moves (a swap with ``i == j``, a reshape that lands on a
hard block) used to be packed and cost-evaluated just to be accepted
with ``delta == 0``. They are now classified up front and skip the
evaluation while performing the *same* bookkeeping (the move counts as
accepted, the temperature steps). The RNG stream is deliberately left
untouched — resampling would perturb every downstream decision and
break reproducibility against recorded benchmark results.
"""

from __future__ import annotations

import logging
import math
import random
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.floorplan.blocks import Block, Placement
from repro.floorplan.sequence_pair import ArrayPacker
from repro.obs import NOOP_TRACER

log = logging.getLogger(__name__)

_ASPECTS = (0.4, 0.6, 0.8, 1.0, 1.25, 1.65, 2.5)

#: Parallel-tempering ladder: replica ``r`` anneals from a starting
#: temperature scaled by ``_TEMPER_LADDER ** r``, so higher replicas
#: explore more aggressively while replica 0 reproduces the
#: single-start schedule exactly.
_TEMPER_LADDER = 1.5

#: Deterministic seed fan-out stride for multi-start replicas.
_REPLICA_SEED_STRIDE = 7919


class SequencePairAnnealer:
    """Anneal a sequence pair for a set of blocks.

    Args:
        blocks: Blocks to place.
        net_pairs: Inter-block connectivity as ``(block_a, block_b,
            multiplicity)`` triples, used for the wirelength term.
        seed: RNG seed.
        wirelength_weight: Relative weight of wirelength vs chip area
            in the cost (both are normalised by their initial values).
    """

    def __init__(
        self,
        blocks: Sequence[Block],
        net_pairs: Sequence[Tuple[str, str, int]] = (),
        seed: int = 0,
        wirelength_weight: float = 0.3,
    ):
        self.blocks: Dict[str, Block] = {b.name: b for b in blocks}
        self.net_pairs = [
            (a, b, m) for a, b, m in net_pairs if a in self.blocks and b in self.blocks
        ]
        self.rng = random.Random(seed)
        self.wirelength_weight = wirelength_weight
        self.best_cost: Optional[float] = None

    # ------------------------------------------------------------------
    def _propose(self, gp: List[str]):
        """Draw the next move from the RNG.

        Consumes random values exactly like the historical
        ``_neighbour`` (one float, two indices, plus an aspect choice
        for soft reshapes) and classifies no-ops — an ``i == j`` swap,
        a reshape of a hard block — up front so the caller can skip
        their pack/cost evaluation entirely. Returns one of::

            ("noop",)
            ("swap_p", i, j) | ("swap_m", i, j)
            ("reshape", name, old_block, new_block)
        """
        n = len(gp)
        move = self.rng.random()
        i, j = self.rng.randrange(n), self.rng.randrange(n)
        if move < 0.8:
            if i == j:
                return ("noop",)
            return ("swap_p" if move < 0.4 else "swap_m", i, j)
        name = gp[i]
        block = self.blocks[name]
        if block.hard:
            return ("noop",)
        return ("reshape", name, block, block.with_aspect(self.rng.choice(_ASPECTS)))

    # ------------------------------------------------------------------
    def run(
        self,
        iterations: int = 3000,
        t_start: float = 1.0,
        t_end: float = 1e-3,
        tracer=None,
        span=None,
    ) -> Tuple[List[Placement], float, float]:
        """Anneal and return ``(placements, chip_w, chip_h)`` of the best
        floorplan found.

        ``self.best_sequences`` and ``self.best_blocks`` hold the
        sequence pair and block shapes of that floorplan, so callers
        can re-pack it incrementally (e.g. after expanding a block);
        ``self.best_cost`` holds its cost (multi-start selection keys
        on it).

        ``tracer`` records the anneal as a ``floorplan/anneal`` span:
        acceptance rate, cost trajectory, final temperature, plus ten
        ``checkpoint`` events along the cooling schedule. A caller that
        already owns a span (multi-start) passes it as ``span``.
        """
        if tracer is None:
            tracer = NOOP_TRACER
        names = sorted(self.blocks)
        gp = list(names)
        gm = list(names)
        self.rng.shuffle(gp)
        self.rng.shuffle(gm)
        if span is not None:
            return self._anneal_arrays(
                gp, gm, iterations, t_start, t_end, tracer, span
            )
        with tracer.span("floorplan/anneal", iterations=iterations) as span_:
            return self._anneal_arrays(
                gp, gm, iterations, t_start, t_end, tracer, span_
            )

    # ------------------------------------------------------------------
    def _cost_arrays(self, packer, xs, ys, pa, pb, pm):
        xa = np.array(xs, dtype=np.float64)
        ya = np.array(ys, dtype=np.float64)
        w, h = packer.extents(xa, ya)
        area = w * h
        squareness = max(w, h) / max(min(w, h), 1e-9)
        cx = xa + packer.wid / 2.0
        cy = ya + packer.hei / 2.0
        terms = pm * (np.abs(cx[pa] - cx[pb]) + np.abs(cy[pa] - cy[pb]))
        # Left-to-right scalar accumulation, matching a per-net loop
        # exactly (np.sum pairs terms differently).
        wl = sum(terms.tolist())
        cost = area * (1.0 + 0.1 * (squareness - 1.0)) + self.wirelength_weight * wl
        return cost, w, h

    def _anneal_arrays(self, gp, gm, iterations, t_start, t_end, tracer, span):
        packer = ArrayPacker(self.blocks)
        idx = packer.index
        n = len(gp)
        gp_ids = [idx[b] for b in gp]
        gm_ids = [idx[b] for b in gm]
        pos_p = [0] * n
        for k, b in enumerate(gp_ids):
            pos_p[b] = k
        pos_m = [0] * n
        for k, b in enumerate(gm_ids):
            pos_m[b] = k
        n_pairs = len(self.net_pairs)
        pa = np.fromiter(
            (idx[a] for a, _b, _m in self.net_pairs), dtype=np.int64, count=n_pairs
        )
        pb = np.fromiter(
            (idx[b] for _a, b, _m in self.net_pairs), dtype=np.int64, count=n_pairs
        )
        pm = np.fromiter(
            (m for _a, _b, m in self.net_pairs), dtype=np.float64, count=n_pairs
        )
        xs = [0.0] * n
        ys = [0.0] * n
        packer.fill_lists(gm_ids, pos_p, xs, ys)
        cand_xs = list(xs)
        cand_ys = list(ys)

        cost, w, h = self._cost_arrays(packer, xs, ys, pa, pb, pm)
        initial_cost = cost
        best = (cost, packer.placements(gp_ids, xs, ys), w, h)
        self.best_sequences = (list(gp), list(gm))
        self.best_blocks = dict(self.blocks)

        alpha = (t_end / t_start) ** (1.0 / max(iterations, 1))
        temp = t_start * cost
        accepted = 0
        checkpoint = max(1, iterations // 10)
        for it in range(iterations):
            mv = self._propose(gp)
            kind = mv[0]
            if kind == "noop":
                accepted += 1
                temp *= alpha
                if tracer.enabled and (it + 1) % checkpoint == 0:
                    span.event(
                        "checkpoint",
                        iteration=it + 1,
                        temperature=temp,
                        cost=cost,
                        best_cost=best[0],
                    )
                continue
            # Apply the move in place; a rejection undoes it (swaps are
            # involutions, reshapes keep the old block around).
            if kind == "swap_p":
                _, i, j = mv
                a, b = gp_ids[i], gp_ids[j]
                gp[i], gp[j] = gp[j], gp[i]
                gp_ids[i], gp_ids[j] = b, a
                pos_p[a], pos_p[b] = pos_p[b], pos_p[a]
                k0 = min(pos_m[a], pos_m[b])
            elif kind == "swap_m":
                _, i, j = mv
                a, b = gm_ids[i], gm_ids[j]
                gm[i], gm[j] = gm[j], gm[i]
                gm_ids[i], gm_ids[j] = b, a
                pos_m[a], pos_m[b] = pos_m[b], pos_m[a]
                k0 = min(i, j)
            else:  # reshape
                _, name, old_block, new_block = mv
                self.blocks[name] = new_block
                rid = idx[name]
                packer.set_dims(rid, new_block)
                k0 = pos_m[rid]
            cand_xs[:] = xs
            cand_ys[:] = ys
            packer.fill_lists(gm_ids, pos_p, cand_xs, cand_ys, k0)
            cand_cost, cand_w, cand_h = self._cost_arrays(
                packer, cand_xs, cand_ys, pa, pb, pm
            )
            delta = cand_cost - cost
            if delta <= 0 or self.rng.random() < math.exp(
                -delta / max(temp, 1e-12)
            ):
                xs, cand_xs = cand_xs, xs
                ys, cand_ys = cand_ys, ys
                cost = cand_cost
                accepted += 1
                if cost < best[0]:
                    best = (cost, packer.placements(gp_ids, xs, ys), cand_w, cand_h)
                    self.best_sequences = (list(gp), list(gm))
                    self.best_blocks = dict(self.blocks)
            else:
                # Undo the move.
                if kind == "swap_p":
                    _, i, j = mv
                    a, b = gp_ids[i], gp_ids[j]
                    gp[i], gp[j] = gp[j], gp[i]
                    gp_ids[i], gp_ids[j] = b, a
                    pos_p[a], pos_p[b] = pos_p[b], pos_p[a]
                elif kind == "swap_m":
                    _, i, j = mv
                    a, b = gm_ids[i], gm_ids[j]
                    gm[i], gm[j] = gm[j], gm[i]
                    gm_ids[i], gm_ids[j] = b, a
                    pos_m[a], pos_m[b] = pos_m[b], pos_m[a]
                else:
                    _, name, old_block, _new = mv
                    self.blocks[name] = old_block
                    packer.set_dims(idx[name], old_block)
            temp *= alpha
            if tracer.enabled and (it + 1) % checkpoint == 0:
                span.event(
                    "checkpoint",
                    iteration=it + 1,
                    temperature=temp,
                    cost=cost,
                    best_cost=best[0],
                )
        span.set(
            accepted=accepted,
            acceptance_rate=accepted / max(iterations, 1),
            initial_cost=initial_cost,
            best_cost=best[0],
            t_final=temp,
        )
        self.best_cost = best[0]
        _best_cost, placements, w, h = best
        log.debug(
            "anneal: %d moves, %d accepted, cost %.1f -> %.1f",
            iterations,
            accepted,
            initial_cost,
            _best_cost,
        )
        return placements, w, h


# ----------------------------------------------------------------------
def _anneal_replica(payload) -> Tuple[float, Tuple[List[str], List[str]], Dict[str, Block]]:
    """One multi-start replica; module-level so it pickles to workers."""
    blocks, net_pairs, seed, iterations, t_start = payload
    annealer = SequencePairAnnealer(blocks, net_pairs, seed=seed)
    annealer.run(iterations=iterations, t_start=t_start)
    return annealer.best_cost, annealer.best_sequences, annealer.best_blocks


def anneal_multistart(
    blocks: Sequence[Block],
    net_pairs: Sequence[Tuple[str, str, int]],
    seed: int = 0,
    iterations: int = 3000,
    replicas: int = 1,
    jobs: int = 1,
    tracer=None,
) -> Tuple[Tuple[List[str], List[str]], Dict[str, Block], float]:
    """Parallel-tempered multi-start annealing; returns the best replica.

    Replica ``r`` anneals with seed ``seed + r * stride`` and starting
    temperature scaled by ``_TEMPER_LADDER ** r`` — a deterministic
    fan-out, so results are reproducible for any ``jobs``. Replica 0 is
    *exactly* the single-start schedule; with ``replicas == 1`` this
    function is behaviour-identical (same RNG stream, same spans) to
    calling :class:`SequencePairAnnealer` directly.

    ``jobs > 1`` farms replicas ``1..r-1`` out to worker processes
    (replica 0 runs in-process so its trace span survives); the
    ``floorplan/anneal`` span then records the replica count, every
    replica's best cost, and which replica won. Ties go to the lowest
    replica index, keeping the outcome independent of scheduling.

    Returns ``(best_sequences, best_blocks, best_cost)``.
    """
    if tracer is None:
        tracer = NOOP_TRACER
    if replicas <= 1:
        annealer = SequencePairAnnealer(blocks, net_pairs, seed=seed)
        annealer.run(iterations=iterations, tracer=tracer)
        return annealer.best_sequences, annealer.best_blocks, annealer.best_cost

    block_list = list(blocks)
    payloads = [
        (
            block_list,
            list(net_pairs),
            seed + r * _REPLICA_SEED_STRIDE,
            iterations,
            _TEMPER_LADDER**r,
        )
        for r in range(1, replicas)
    ]
    with tracer.span(
        "floorplan/anneal", iterations=iterations, replicas=replicas
    ) as span:
        if jobs > 1:
            with ProcessPoolExecutor(
                max_workers=min(jobs, len(payloads))
            ) as pool:
                others = list(pool.map(_anneal_replica, payloads))
        else:
            others = [_anneal_replica(p) for p in payloads]
        annealer = SequencePairAnnealer(block_list, net_pairs, seed=seed)
        annealer.run(iterations=iterations, tracer=tracer, span=span)
        results = [
            (annealer.best_cost, annealer.best_sequences, annealer.best_blocks)
        ] + others
        costs = [r[0] for r in results]
        winner = min(range(len(results)), key=lambda k: (costs[k], k))
        span.set(
            replica_costs=costs,
            best_replica=winner,
            best_cost=costs[winner],
        )
    best_cost, best_sequences, best_blocks = results[winner]
    log.debug(
        "multi-start anneal: %d replicas, best replica %d (cost %.1f)",
        replicas,
        winner,
        best_cost,
    )
    return best_sequences, best_blocks, best_cost
