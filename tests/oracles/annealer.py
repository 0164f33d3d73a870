"""Reference sequence-pair annealer: the historical object path.

:class:`repro.floorplan.annealer.SequencePairAnnealer` evaluates each
move on flat arrays and re-packs only the suffix the move disturbs.
:class:`ObjectAnnealer` replaces that evaluation with a full
:func:`~repro.floorplan.sequence_pair.pack` of copied sequences and a
per-net wirelength loop over :class:`Placement` objects. It draws moves
from the same :meth:`_propose`, so the two must follow bit-identical
trajectories: same acceptances, same best cost, sequences and shapes.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from repro.floorplan.annealer import SequencePairAnnealer
from repro.floorplan.blocks import Placement
from repro.floorplan.sequence_pair import pack


class ObjectAnnealer(SequencePairAnnealer):
    """:class:`SequencePairAnnealer` with the object evaluation path."""

    def _wirelength(self, placements: List[Placement]) -> float:
        centers = {p.name: p.center for p in placements}
        total = 0.0
        for a, b, mult in self.net_pairs:
            (ax, ay), (bx, by) = centers[a], centers[b]
            total += mult * (abs(ax - bx) + abs(ay - by))
        return total

    def _cost(
        self, gamma_plus: List[str], gamma_minus: List[str]
    ) -> Tuple[float, List[Placement], float, float]:
        placements, w, h = pack(gamma_plus, gamma_minus, self.blocks)
        area = w * h
        squareness = max(w, h) / max(min(w, h), 1e-9)
        wl = self._wirelength(placements)
        cost = area * (1.0 + 0.1 * (squareness - 1.0)) + self.wirelength_weight * wl
        return cost, placements, w, h

    def _anneal_arrays(self, gp, gm, iterations, t_start, t_end, tracer, span):
        cost, placements, w, h = self._cost(gp, gm)
        initial_cost = cost
        best = (cost, placements, w, h)
        self.best_sequences = (list(gp), list(gm))
        self.best_blocks = dict(self.blocks)

        alpha = (t_end / t_start) ** (1.0 / max(iterations, 1))
        temp = t_start * cost
        accepted = 0
        checkpoint = max(1, iterations // 10)
        for i in range(iterations):
            mv = self._propose(gp)
            kind = mv[0]
            if kind == "noop":
                accepted += 1
            else:
                cand_gp, cand_gm = list(gp), list(gm)
                if kind == "reshape":
                    self.blocks[mv[1]] = mv[3]
                else:
                    _, a, b = mv
                    if kind == "swap_p":
                        cand_gp[a], cand_gp[b] = cand_gp[b], cand_gp[a]
                    else:
                        cand_gm[a], cand_gm[b] = cand_gm[b], cand_gm[a]
                cand_cost, cand_pl, cand_w, cand_h = self._cost(cand_gp, cand_gm)
                delta = cand_cost - cost
                if delta <= 0 or self.rng.random() < math.exp(
                    -delta / max(temp, 1e-12)
                ):
                    gp, gm, cost = cand_gp, cand_gm, cand_cost
                    accepted += 1
                    if cost < best[0]:
                        best = (cost, cand_pl, cand_w, cand_h)
                        self.best_sequences = (list(gp), list(gm))
                        self.best_blocks = dict(self.blocks)
                elif kind == "reshape":
                    self.blocks[mv[1]] = mv[2]
            temp *= alpha
            if tracer.enabled and (i + 1) % checkpoint == 0:
                span.event(
                    "checkpoint",
                    iteration=i + 1,
                    temperature=temp,
                    cost=cost,
                    best_cost=best[0],
                )
        span.set(
            acceptance_rate=accepted / max(iterations, 1),
            initial_cost=initial_cost,
            best_cost=best[0],
            t_final=temp,
        )
        self.best_cost = best[0]
        _best_cost, placements, w, h = best
        return placements, w, h
