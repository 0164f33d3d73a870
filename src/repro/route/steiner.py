"""Rectilinear Steiner tree construction.

The paper adapts Ho–Vijayan–Wong for Steiner trees; we implement the
standard practical pipeline: a Prim rectilinear spanning tree over the
pins followed by iterated 1-Steiner refinement over Hanan grid points
(each round inserts the single Steiner point that reduces total
Manhattan length the most). The result is a tree topology over points;
the global router embeds each tree edge into the tile lattice.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set, Tuple

import numpy as np

Point = Tuple[int, int]
Edge = Tuple[Point, Point]

#: Marks a point already in a batched Prim's tree.
_DONE = np.iinfo(np.int64).max


def manhattan(a: Point, b: Point) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def spanning_tree(points: Sequence[Point]) -> List[Edge]:
    """Prim's algorithm under Manhattan distance. O(n^2)."""
    pts = list(dict.fromkeys(points))  # dedupe, keep order
    if len(pts) < 2:
        return []
    in_tree = {pts[0]}
    out = set(pts[1:])
    edges: List[Edge] = []
    best_link: Dict[Point, Tuple[int, Point]] = {
        p: (manhattan(p, pts[0]), pts[0]) for p in out
    }
    while out:
        p = min(out, key=lambda q: best_link[q][0])
        dist, anchor = best_link[p]
        edges.append((anchor, p))
        out.remove(p)
        in_tree.add(p)
        for q in out:
            d = manhattan(q, p)
            if d < best_link[q][0]:
                best_link[q] = (d, p)
    return edges


def tree_length(edges: Iterable[Edge]) -> int:
    return sum(manhattan(a, b) for a, b in edges)


def hanan_points(points: Sequence[Point]) -> Set[Point]:
    xs = {p[0] for p in points}
    ys = {p[1] for p in points}
    return {(x, y) for x in xs for y in ys} - set(points)


def steiner_tree(points: Sequence[Point], max_rounds: int = 3) -> List[Edge]:
    """Iterated 1-Steiner heuristic.

    Each round scores every Hanan point of the current terminal set at
    once (:func:`_spanning_lengths`) and keeps the first one, in
    ``hanan_points`` iteration order, that shortens the spanning tree
    the most; stops when no point helps or after ``max_rounds``.

    A tree as short as the pins' half-perimeter wirelength cannot be
    beaten (every tree through all the pins is at least that long), so
    rounds stop there without scoring; two pins are always there and
    return their one edge directly.
    """
    terminals = list(dict.fromkeys(points))
    if len(terminals) < 2:
        return []
    if len(terminals) == 2:
        return [(terminals[0], terminals[1])]
    xs = [p[0] for p in terminals]
    ys = [p[1] for p in terminals]
    hpwl = max(xs) - min(xs) + max(ys) - min(ys)
    edges = spanning_tree(terminals)
    best_len = tree_length(edges)
    for _ in range(max_rounds):
        if best_len == hpwl:
            break
        candidates = list(hanan_points(terminals))
        if not candidates:
            break
        lengths = _spanning_lengths(terminals, candidates)
        best = int(np.argmin(lengths))
        if lengths[best] >= best_len:
            break
        terminals.append(candidates[best])
        edges = spanning_tree(terminals)
        edges = _prune_leaf_steiner(edges, set(points))
        best_len = tree_length(edges)
    return edges


def _spanning_lengths(
    terminals: Sequence[Point], candidates: Sequence[Point]
) -> np.ndarray:
    """Spanning-tree length of ``terminals + [c]`` for every candidate ``c``.

    One Prim per candidate, all run together as the rows of ``(K, n)``
    arrays, so memory stays O(K·n). Each row's Prim starts at its
    candidate and reads terminal-to-terminal distances from one shared
    ``(n, n)`` table. Only lengths come out, and a minimum spanning
    tree's length does not depend on where Prim starts or how it breaks
    ties, so each row equals ``tree_length(spanning_tree(...))``.
    """
    term = np.array(terminals, dtype=np.int64)
    cand = np.array(candidates, dtype=np.int64)
    tx, ty = term[:, 0], term[:, 1]
    dist = np.abs(tx[:, None] - tx) + np.abs(ty[:, None] - ty)
    # link[r, q]: distance from terminal q to row r's tree so far; a
    # terminal already in the tree reads as _DONE so argmin skips it.
    link = np.abs(cand[:, :1] - tx) + np.abs(cand[:, 1:] - ty)
    rows = np.arange(len(candidates))
    in_tree = np.zeros(link.shape, dtype=bool)
    total = np.zeros(len(candidates), dtype=np.int64)
    for _ in range(len(terminals)):
        nearest = link.argmin(axis=1)
        total += link[rows, nearest]
        in_tree[rows, nearest] = True
        np.minimum(link, dist[nearest], out=link)
        np.putmask(link, in_tree, _DONE)
    return total


def _prune_leaf_steiner(edges: List[Edge], pins: Set[Point]) -> List[Edge]:
    """Remove degree-1 Steiner points (they only add length)."""
    edges = list(edges)
    while True:
        degree: Dict[Point, int] = {}
        for a, b in edges:
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
        removable = {
            p for p, deg in degree.items() if deg == 1 and p not in pins
        }
        if not removable:
            return edges
        edges = [
            (a, b) for a, b in edges if a not in removable and b not in removable
        ]


def tree_paths(
    edges: Sequence[Edge], root: Point, targets: Sequence[Point]
) -> Dict[Point, List[Point]]:
    """Per-target point sequence from ``root`` through the tree topology."""
    adj: Dict[Point, List[Point]] = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    parent: Dict[Point, Point] = {root: root}
    stack = [root]
    while stack:
        p = stack.pop()
        for q in adj.get(p, []):
            if q not in parent:
                parent[q] = p
                stack.append(q)
    out: Dict[Point, List[Point]] = {}
    for t in targets:
        if t == root:
            out[t] = [root]
            continue
        if t not in parent:
            continue  # disconnected target: caller handles
        path = [t]
        while path[-1] != root:
            path.append(parent[path[-1]])
        out[t] = list(reversed(path))
    return out
