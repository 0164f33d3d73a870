"""Reference FM gain and pass: dict loops over the nets of each cell.

:class:`repro.partition.fm.FMBipartitioner` ships an integer pass that
keeps per-net side counts and a max-gain heap incrementally. This
module recomputes every gain from scratch by walking the nets, the way
the classic FM description reads, so the kernel's bookkeeping has
something independent to agree with move for move.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.partition.fm import FMBipartitioner


def gain(fm: FMBipartitioner, cell: str, side: Mapping[str, int]) -> int:
    """Cut-size reduction if ``cell`` moves to the other side."""
    return _gain([net for net in fm.nets if cell in net], cell, side)


def _gain(nets, cell: str, side: Mapping[str, int]) -> int:
    total = 0
    s = side[cell]
    for net in nets:
        same = sum(1 for c in net if c != cell and side[c] == s)
        other = len(net) - 1 - same
        if same == 0:
            total += 1  # net becomes uncut
        if other == 0:
            total -= 1  # net becomes cut
    return total


def reference_moves(
    fm: FMBipartitioner,
    side: Mapping[str, int],
    blocked: Optional[List[str]] = None,
) -> List[Tuple[str, int]]:
    """The historical dict-based move sequence of one pass.

    Each step rescans every unlocked cell's gain and moves the first
    strict maximum (in ``fm.cells`` order) among the cells whose move
    respects the balance bound. When ``blocked`` is given, each step
    appends to it the unlocked cells that outrank the chosen move
    (higher gain, or equal gain earlier in ``fm.cells``) but break the
    balance bound: the moves a max-gain structure must set aside.
    """
    side = dict(side)
    nets_of = {c: [net for net in fm.nets if c in net] for c in fm.cells}
    area = [0.0, 0.0]
    for c in fm.cells:
        area[side[c]] += fm.areas[c]
    locked: Set[str] = set()
    history: List[Tuple[str, int]] = []

    for _ in range(len(fm.cells)):
        best_cell = None
        best_cell_gain = None
        over: List[Tuple[int, int, str]] = []
        for index, c in enumerate(fm.cells):
            if c in locked:
                continue
            g = _gain(nets_of[c], c, side)
            target = 1 - side[c]
            if area[target] + fm.areas[c] > fm.max_side_area:
                over.append((g, index, c))
                continue
            if best_cell_gain is None or g > best_cell_gain:
                best_cell = c
                best_cell_gain = g
                best_index = index
        if best_cell is None:
            break
        if blocked is not None:
            blocked.extend(
                c
                for g, index, c in over
                if g > best_cell_gain or (g == best_cell_gain and index < best_index)
            )
        locked.add(best_cell)
        s = side[best_cell]
        area[s] -= fm.areas[best_cell]
        area[1 - s] += fm.areas[best_cell]
        side[best_cell] = 1 - s
        history.append((best_cell, best_cell_gain))
    return history


def reference_fm_pass(
    fm: FMBipartitioner, side: Dict[str, int]
) -> Tuple[bool, Dict[str, int]]:
    """The historical dict-based FM pass: make every move, keep the best prefix."""
    cum_gain = 0
    best_prefix = 0
    best_gain = 0
    history = reference_moves(fm, side)
    for i, (_cell, g) in enumerate(history, start=1):
        cum_gain += g
        if cum_gain > best_gain:
            best_gain = cum_gain
            best_prefix = i
    side = dict(side)
    for cell, _g in history[:best_prefix]:
        side[cell] = 1 - side[cell]
    return best_gain > 0, side
