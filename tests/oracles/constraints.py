"""Named difference constraints: the textbook form of the retiming table.

The shipped constraint table (:mod:`repro.retime.constraints`) is a
structured int64 array in the compiled artifact's index space. The
oracles and tests here read constraints the way the paper writes them:
one :class:`Constraint` per row, with unit names and a kind, built by
Python loops over the graph's connections and the entries of the W/D
matrices; they share only those matrices with the shipped helpers, not
the mask, prune or collapse steps. :func:`named_constraints` turns a
shipped :class:`~repro.retime.constraints.ConstraintSystem` into that
form, so a test can compare the two row for row.

Also here: the dict form of the min-area objective
(:func:`retiming_objective`), its value (:func:`objective_value`) and
the all-vertex reference of the witness prune
(:func:`prune_reference`). :func:`prune_redundant_arrays` is not a
reference: it is the shipped witness kernel itself, applied to
arbitrary pair arrays so the prune tests can feed it pairs of their
choosing.

The shipped table holds the pruned clocking rows only. The unpruned
ones, every pair with ``D(u, v) > T`` at bound ``W(u, v) - 1``
(:func:`unpruned_clock_rows`), and the whole system built on them
(:func:`unpruned_system`) live here: that system has the same solution
set as the shipped one, so its min-area objective is the reference the
prune is checked against.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.compile.artifact import CompiledCircuit
from repro.errors import InfeasiblePeriodError
from repro.netlist.graph import CircuitGraph
from repro.retime.constraints import (
    ConstraintSystem,
    _witness_delays,
    row_table,
    static_rows,
)
from repro.retime.minarea import WEIGHT_SCALE
from repro.retime.wd import WDMatrices, wd_matrices


@dataclasses.dataclass(frozen=True)
class Constraint:
    """One difference constraint ``r(u) - r(v) <= bound``."""

    u: str
    v: str
    bound: int
    kind: str  # "edge", "clock", or "host"


def edge_constraints(graph: CircuitGraph) -> List[Constraint]:
    """Eqn. (1): one constraint per connection, collapsed to the
    tightest bound for parallel connections, in first-occurrence order."""
    best: Dict[Tuple[str, str], int] = {}
    for (u, v, _key), w in graph.connections():
        pair = (u, v)
        if pair not in best or w < best[pair]:
            best[pair] = w
    return [Constraint(u, v, w, "edge") for (u, v), w in best.items()]


def host_constraints(graph: CircuitGraph) -> List[Constraint]:
    """Pin all host vertices to a common label (normalised to 0 later)."""
    hosts = graph.host_units()
    out: List[Constraint] = []
    for a, b in zip(hosts, hosts[1:]):
        out.append(Constraint(a, b, 0, "host"))
        out.append(Constraint(b, a, 0, "host"))
    return out


def prune_reference(
    wd: WDMatrices, period: float, pairs: Sequence[Tuple[int, int]]
) -> List[Tuple[int, int]]:
    """The witness prune testing *every* vertex: ``(i, j)`` is kept
    unless some ``x`` other than its endpoints lies on a minimum-weight
    ``i -> j`` path and ``D(i, x) > T`` or ``D(x, j) > T``."""
    w, d = wd.w, wd.d
    exceeding = np.isfinite(d) & (d > period)
    np.fill_diagonal(exceeding, False)
    kept = []
    for i, j in pairs:
        with np.errstate(invalid="ignore"):
            on_path = w[i, :] + w[:, j] == w[i, j]
        on_path[i] = False
        on_path[j] = False
        witness = exceeding[i, :] | exceeding[:, j]
        if not (on_path & witness).any():
            kept.append((i, j))
    return kept


def prune_redundant_arrays(
    wd: WDMatrices, period: float, src: np.ndarray, dst: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The shipped witness prune (not a reference) over arbitrary
    ``(src, dst)`` pair arrays, order kept: the pairs whose largest
    neighbour-witness delay (``_witness_delays``, the kernel of
    :class:`repro.retime.constraints.WitnessTable`) is at most
    ``period``. The shipped clocking rows apply it to the pairs
    exceeding a period only."""
    if src.size == 0:
        return src, dst
    flat = np.asarray(src, dtype=np.int64) * wd.w.shape[0] + dst
    keep = _witness_delays(wd, flat) <= period
    return src[keep], dst[keep]


def pairs_exceeding_arrays(
    wd: WDMatrices, period: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Index pairs ``(i, j)``, ``i != j``, with ``D > period``, as a
    ``(rows, cols)`` ndarray pair in row-major order."""
    return np.nonzero(wd.exceeding(period))


def unpruned_clock_rows(wd: WDMatrices, period: float) -> np.ndarray:
    """The clocking rows before the witness prune, as a shipped
    :data:`~repro.retime.constraints.ROW` table: every pair of
    :func:`pairs_exceeding_arrays`, row-major, at bound ``W - 1``."""
    rows, cols = pairs_exceeding_arrays(wd, period)
    return row_table(rows, cols, wd.w[rows, cols].astype(np.int64) - 1)


def unpruned_system(
    graph: CircuitGraph,
    period: float,
    compiled: Optional[CompiledCircuit] = None,
) -> ConstraintSystem:
    """The shipped system's static rows, then :func:`unpruned_clock_rows`
    (``compiled`` is compiled here if omitted; a loaded one rebuilds its
    W/D). Raises :class:`InfeasiblePeriodError` when a unit's delay
    exceeds ``period``, as the shipped builder does."""
    compiled = CompiledCircuit.for_graph(graph, compiled)
    if compiled.max_delay > period:
        raise InfeasiblePeriodError(period, "a single unit's delay exceeds it")
    compiled.rebuild_search_inputs(graph, "clock_pairs")
    static = static_rows(graph)
    clock = unpruned_clock_rows(compiled.wd, period)
    return ConstraintSystem(
        np.concatenate([static, clock]), float(period), len(static), compiled
    )


def clock_constraints(
    wd: WDMatrices, period: float, prune: bool = False
) -> List[Constraint]:
    """Eqn. (2): ``r(u) - r(v) <= W(u, v) - 1`` for every pair ``u != v``
    with ``D(u, v) > period``, row-major; with ``prune``, only the pairs
    :func:`prune_reference` keeps."""
    pairs = [
        (i, j)
        for i, row in enumerate(wd.d.tolist())
        for j, d in enumerate(row)
        if i != j and math.isfinite(d) and d > period
    ]
    if prune:
        pairs = prune_reference(wd, period, pairs)
    return [
        Constraint(wd.order[i], wd.order[j], int(wd.w[i, j]) - 1, "clock")
        for i, j in pairs
    ]


def expected_constraints(
    graph: CircuitGraph,
    period: Optional[float],
    prune: bool = False,
    wd: Optional[WDMatrices] = None,
) -> List[Constraint]:
    """Edge, host and (when ``period`` is given) clocking constraints,
    in the order the shipped table keeps its rows."""
    out = edge_constraints(graph) + host_constraints(graph)
    if period is not None:
        if wd is None:
            wd = wd_matrices(graph)
        out += clock_constraints(wd, period, prune)
    return out


def by_kind(constraints: Sequence[Constraint], kind: str) -> List[Constraint]:
    return [c for c in constraints if c.kind == kind]


def named_constraints(system: ConstraintSystem) -> List[Constraint]:
    """The shipped table as named constraints. The first ``n_static``
    rows are edge rows (one per connected pair of the artifact) and
    then host rows; the clocking rows follow."""
    compiled = system.compiled
    n_edge = len(set(zip(compiled.conn_u.tolist(), compiled.conn_v.tolist())))
    names = compiled.order
    out = []
    for k, (u, v, bound) in enumerate(system.constraints.tolist()):
        if k < n_edge:
            kind = "edge"
        elif k < system.n_static:
            kind = "host"
        else:
            kind = "clock"
        out.append(Constraint(names[u], names[v], bound, kind))
    return out


def tightest_dict(
    u: Sequence[int], v: Sequence[int], bound: Sequence[int]
) -> List[Tuple[int, int, int]]:
    """One ``(u, v, bound)`` per pair at its smallest bound, pairs in
    first-occurrence order: the dict collapse the shipped
    :func:`~repro.retime.constraints.tightest_rows` replaces."""
    best: Dict[Tuple[int, int], int] = {}
    for a, c, b in zip(u, v, bound):
        if (a, c) not in best or b < best[(a, c)]:
            best[(a, c)] = b
    return [(a, c, b) for (a, c), b in best.items()]


def retiming_objective(
    graph: CircuitGraph, weights: Optional[Mapping[str, float]] = None
) -> Dict[str, int]:
    """Integer objective coefficients ``c_v`` for (weighted) min-area,
    by unit name.

    With ``weights`` omitted, every unit has weight 1 (classic
    min-area). The coefficients are built per connection from the
    scaled integer weight of the *fanin* unit, so they sum to zero
    exactly even after scaling.
    """
    if weights is None:
        scaled = {v: 1 for v in graph.units()}
    else:
        scaled = {
            v: max(1, int(round(weights.get(v, 1.0) * WEIGHT_SCALE)))
            for v in graph.units()
        }
    coeff: Dict[str, int] = {v: 0 for v in graph.units()}
    for (u, v, _key), _w in graph.connections():
        coeff[v] += scaled[u]  # fi(v) gains A(u)
        coeff[u] -= scaled[u]  # fo(u) gains A(u)
    return coeff


def objective_value(
    graph: CircuitGraph,
    labels: Mapping[str, int],
    weights: Optional[Mapping[str, float]] = None,
) -> int:
    """``sum_v c_v * r(v)`` for the scaled integer objective."""
    coeff = retiming_objective(graph, weights)
    return sum(c * labels.get(v, 0) for v, c in coeff.items())
