"""Reference Steiner construction: one full Prim per Hanan candidate.

:func:`repro.route.steiner.steiner_tree` scores every Hanan point of a
1-Steiner round in one batched numpy Prim and returns two-pin nets
without a search. This oracle builds and measures a whole
:func:`~repro.route.steiner.spanning_tree` for every candidate and keeps
the first strict improvement, so any change in which point a round
picks, or in the accepted tree's edges or their order, shows up as a
different edge list.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.route.steiner import (
    Edge,
    Point,
    _prune_leaf_steiner,
    hanan_points,
    spanning_tree,
    tree_length,
)


def steiner_tree(points: Sequence[Point], max_rounds: int = 3) -> List[Edge]:
    """Iterated 1-Steiner heuristic, one spanning tree per candidate."""
    terminals = list(dict.fromkeys(points))
    if len(terminals) < 2:
        return []
    edges = spanning_tree(terminals)
    best_len = tree_length(edges)
    for _ in range(max_rounds):
        improved = False
        for candidate in hanan_points(terminals):
            trial_edges = spanning_tree(terminals + [candidate])
            trial_len = tree_length(trial_edges)
            if trial_len < best_len:
                best_len = trial_len
                best_candidate = candidate
                improved = True
        if not improved:
            break
        terminals.append(best_candidate)
        edges = spanning_tree(terminals)
        edges = _prune_leaf_steiner(edges, set(points))
        best_len = tree_length(edges)
    return edges
