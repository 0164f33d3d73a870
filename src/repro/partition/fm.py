"""Fiduccia–Mattheyses bipartitioning.

The paper's experimental flow "first partitions those circuits into
soft blocks". We implement the classic FM heuristic: iterative
single-cell moves in max-gain order under an area-balance constraint,
with multi-pass refinement, operating on the connection structure of a
:class:`CircuitGraph` (host vertices and parallel-edge multiplicity are
handled by the caller, :mod:`repro.partition.multiway`).

The pass is a plain-integer kernel: per-cell net lists and per-net
cell lists (built once per instance), per-net side counts and a gain
list, and a max-gain heap with lazily skipped stale entries. The
graphs are small (hundreds of cells), so Python ints beat array calls;
``tests/oracles/fm.py`` is the dict-based reference it agrees with
move for move.
"""

from __future__ import annotations

import heapq
import logging
import random
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.obs import NOOP_TRACER

log = logging.getLogger(__name__)


class FMBipartitioner:
    """One FM bipartition instance over a set of cells.

    Args:
        cells: Cell names.
        areas: Cell areas (used for the balance constraint).
        nets: Each net is a set of cells that are electrically
            connected; cut size counts nets with cells on both sides.
        balance: Maximum fraction of total area on one side.
        rng: Seeded RNG for the initial partition.
    """

    def __init__(
        self,
        cells: Sequence[str],
        areas: Mapping[str, float],
        nets: Sequence[Set[str]],
        balance: float = 0.6,
        rng: Optional[random.Random] = None,
    ):
        self.cells = list(cells)
        self.areas = dict(areas)
        self.nets = [set(n) for n in nets if len(n) > 1]
        self.balance = balance
        self.rng = rng or random.Random(0)
        self.total_area = sum(self.areas[c] for c in self.cells)
        # Balance tolerance of at least one (largest) cell: without it a
        # perfectly balanced partition admits no legal move at all and
        # the pass deadlocks.
        max_cell = max((self.areas[c] for c in self.cells), default=0.0)
        self.max_side_area = max(
            self.balance * self.total_area, self.total_area / 2.0 + max_cell
        )
        # Cell/net incidence by position, restricted to this
        # instance's cells (one pin per (net, member cell) pair).
        pos = {c: k for k, c in enumerate(self.cells)}
        self._net_cells = [
            [pos[c] for c in net if c in pos] for net in self.nets
        ]
        self._cell_nets: List[List[int]] = [[] for _ in self.cells]
        for m, members in enumerate(self._net_cells):
            for k in members:
                self._cell_nets[k].append(m)

    # ------------------------------------------------------------------
    def run(self, passes: int = 8, tracer=None) -> Dict[str, int]:
        """Return a side assignment ``cell -> 0 | 1``.

        With a ``tracer`` the refinement becomes a ``partition/fm``
        span carrying the cutsize trajectory (initial cut, final cut,
        one ``pass`` event per FM pass).
        """
        if tracer is None:
            tracer = NOOP_TRACER
        with tracer.span(
            "partition/fm", cells=len(self.cells), nets=len(self.nets)
        ) as span:
            side = self._initial_partition()
            best_side = dict(side)
            best_cut = initial_cut = self.cut_size(side)
            span.set(initial_cut=initial_cut)
            n_passes = 0
            for _ in range(passes):
                improved, side, cut = self._one_pass(side)
                n_passes += 1
                span.event("pass", index=n_passes, cut=cut)
                if cut < best_cut:
                    best_cut = cut
                    best_side = dict(side)
                if not improved:
                    break
            span.set(final_cut=best_cut, passes=n_passes)
        log.debug(
            "FM: %d cells, cut %d -> %d in %d pass(es)",
            len(self.cells),
            initial_cut,
            best_cut,
            n_passes,
        )
        return best_side

    def cut_size(self, side: Mapping[str, int]) -> int:
        cut = 0
        for net in self.nets:
            sides = {side[c] for c in net if c in side}
            if len(sides) > 1:
                cut += 1
        return cut

    # ------------------------------------------------------------------
    def _initial_partition(self) -> Dict[str, int]:
        """Random area-balanced split."""
        order = list(self.cells)
        self.rng.shuffle(order)
        side: Dict[str, int] = {}
        area0 = 0.0
        for c in order:
            if area0 + self.areas[c] <= self.total_area / 2.0:
                side[c] = 0
                area0 += self.areas[c]
            else:
                side[c] = 1
        return side

    def _one_pass(
        self, side: Dict[str, int]
    ) -> Tuple[bool, Dict[str, int], int]:
        """One FM pass: make every move of :meth:`_moves`, keep the best prefix.

        Returns ``(improved, side, cut)``: whether the kept prefix
        lowers the cut, the resulting assignment and its cut size (the
        pass's start cut less the kept prefix's gain).
        """
        cut, moves = self._moves(side)
        cum_gain = 0
        best_prefix = 0
        best_gain = 0
        for i, (_name, g) in enumerate(moves, start=1):
            cum_gain += g
            if cum_gain > best_gain:
                best_gain = cum_gain
                best_prefix = i
        # Keep the best prefix of moves (each cell moves at most once).
        out = dict(side)
        for name, _g in moves[:best_prefix]:
            out[name] = 1 - out[name]
        return best_gain > 0, out, cut - best_gain

    def _moves(
        self, side: Mapping[str, int]
    ) -> Tuple[int, List[Tuple[str, int]]]:
        """Move every cell once from ``side``; returns the start cut and
        the ``(cell, gain)`` moves in order.

        Each step moves the first unlocked cell, in ``self.cells``
        order, of maximum gain whose move respects the balance bound:
        the smallest ``(-gain, index)`` entry of a heap. Entries of
        locked cells or of outdated gains are skipped as they surface;
        current entries whose move would break the balance bound are
        set aside and pushed back after the move. A move updates the
        side counts of its nets and, by the classic FM rules, the gains
        of the unlocked cells on them, pushing one fresh entry per
        changed cell.
        """
        cells = self.cells
        n = len(cells)
        areas = [self.areas[c] for c in cells]
        sides = [side[c] for c in cells]
        # Accumulate side areas in cells order with scalar float adds
        # (bit-equal balance checks with the reference pass).
        area = [0.0, 0.0]
        for k in range(n):
            area[sides[k]] += areas[k]
        net_cells = self._net_cells
        cell_nets = self._cell_nets
        cnt = [[0] * len(net_cells), [0] * len(net_cells)]
        for m, members in enumerate(net_cells):
            for k in members:
                cnt[sides[k]][m] += 1
        cut = sum(1 for c0, c1 in zip(*cnt) if c0 and c1)
        # A cell's gain, per net: +1 when it is alone on its side
        # (moving uncuts the net), -1 when the far side is empty
        # (moving cuts it).
        gain = [0] * n
        for k in range(n):
            own, far = cnt[sides[k]], cnt[1 - sides[k]]
            gain[k] = sum((own[m] == 1) - (far[m] == 0) for m in cell_nets[k])
        heap = [(-gain[k], k) for k in range(n)]
        heapq.heapify(heap)
        locked = [False] * n
        limit = self.max_side_area
        moves: List[Tuple[str, int]] = []
        while True:
            k = -1
            aside = []
            while heap:
                entry = heapq.heappop(heap)
                c = entry[1]
                if locked[c] or -entry[0] != gain[c]:
                    continue  # stale
                if area[1 - sides[c]] + areas[c] <= limit:
                    k = c
                    break
                aside.append(entry)
            for entry in aside:
                heapq.heappush(heap, entry)
            if k < 0:
                break
            locked[k] = True
            moves.append((cells[k], gain[k]))
            s = sides[k]
            t = 1 - s
            area[s] -= areas[k]
            area[t] += areas[k]
            cnt_s, cnt_t = cnt[s], cnt[t]
            changed = set()
            for m in cell_nets[k]:
                before_t = cnt_t[m]
                after_s = cnt_s[m] - 1
                cnt_s[m] = after_s
                cnt_t[m] = before_t + 1
                if before_t > 1 and after_s > 1:
                    continue  # no gain on this net changes
                # The classic FM rules: the net turning cut (or leaving
                # the from-side) raises (lowers) every gain; the to-side's
                # lone cell stops uncutting it, the from-side's starts to.
                up = (before_t == 0) - (after_s == 0)
                for c in net_cells[m]:
                    if not locked[c]:
                        if sides[c] == t:
                            d = up - (before_t == 1)
                        else:
                            d = up + (after_s == 1)
                        if d:
                            gain[c] += d
                            changed.add(c)
            sides[k] = t
            for c in changed:
                heapq.heappush(heap, (-gain[c], c))
        return cut, moves
