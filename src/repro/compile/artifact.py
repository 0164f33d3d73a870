"""The compiled-circuit artifact: everything the retiming solve needs
that depends only on the (expanded) circuit graph, tech parameters and
the compilation-relevant planner switches.

Compilation is the expensive, *pure* front half of a planning
iteration: vertex order, W/D matrices (scalarised Johnson), merged and
exact candidate-period sets, the FEAS probe arrays, the min-area
objective gather arrays, and — filled in lazily as the solve runs —
per-period pruned clocking-pair sets and the minimum-period witness.
The solve half (binary search, LP/SSP min-area, LAC rounds) consumes
the artifact and never recomputes any of it.

Artifacts are content-addressed: :func:`compile_fingerprint` hashes the
circuit JSON (:func:`repro.netlist.io.graph_to_dict`), the
:class:`~repro.tech.params.Technology` fields and the
compilation-relevant config switch (``prune``). The planner compiles the *expanded* graph of
each iteration, whose content already reflects every upstream stage
(partition seed, floorplan, routes, repeaters), so equal fingerprints
really do mean equal solve inputs — and therefore bit-identical
results. Fields that only shape caching or observability
(``compile_cache_dir`` itself, ``trace_path``, resilience posture) are
deliberately excluded.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import InfeasiblePeriodError, RetimingError
from repro.netlist.graph import CircuitGraph
from repro.netlist.io import graph_to_dict
from repro.retime.constraints import prune_redundant_arrays
from repro.retime.feas_probe import FeasProbe
from repro.retime.minperiod import clock_period
from repro.retime.wd import WDMatrices, candidate_periods, wd_matrices
from repro.tech.params import DEFAULT_TECH, Technology

#: On-disk artifact schema (also the fingerprint domain separator).
COMPILE_SCHEMA = "repro-compile/1"


def compile_fingerprint(
    graph: CircuitGraph,
    tech: Technology = DEFAULT_TECH,
    prune: bool = True,
) -> str:
    """Content hash naming the compilation of ``graph``.

    Any perturbation of the circuit (a unit, a delay, a connection
    weight), the tech parameters, or a compilation-relevant config
    switch changes the digest, so a cache keyed by it can never serve
    a stale artifact.
    """
    doc = {
        "schema": COMPILE_SCHEMA,
        "graph": graph_to_dict(graph),
        "tech": dataclasses.asdict(tech),
        "config": {"prune": bool(prune)},
    }
    blob = json.dumps(doc, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


@dataclasses.dataclass
class CompiledCircuit:
    """One circuit, compiled: solve-ready arrays plus solve by-products.

    ``clock_pair_sets`` and the ``t_min`` witness start empty and are
    filled in by the first solve (marking the artifact ``dirty`` so the
    cache persists the enriched version); on a warm hit the solve skips
    the min-period search and constraint pruning entirely.
    """

    schema: str
    fingerprint: str
    circuit: str
    n: int
    order: List[str]
    index: Dict[str, int]
    wd: WDMatrices
    t_init: float
    max_delay: float
    candidates: List[float]
    exact_candidates: List[float]
    feas: Optional[FeasProbe]
    conn_u: np.ndarray
    conn_v: np.ndarray
    components: List[frozenset]
    clock_pair_sets: Dict[Tuple[float, bool], Tuple[np.ndarray, np.ndarray]]
    t_min: Optional[float] = None
    t_min_labels: Optional[Dict[str, int]] = None
    #: True when the artifact holds solve by-products not yet persisted.
    dirty: bool = dataclasses.field(default=False, compare=False)

    @classmethod
    def compile(
        cls,
        graph: CircuitGraph,
        tech: Technology = DEFAULT_TECH,
        prune: bool = True,
        fingerprint: Optional[str] = None,
    ) -> "CompiledCircuit":
        """Run the full compile front half on ``graph``."""
        if fingerprint is None:
            fingerprint = compile_fingerprint(graph, tech, prune=prune)
        order = list(graph.units())
        wd = wd_matrices(graph)
        try:
            feas: Optional[FeasProbe] = FeasProbe.build(graph)
        except RetimingError:
            # Rare (e.g. a zero-delay host with a zero-weight self-loop
            # survives W/D but not the FEAS arc build); the solve falls
            # back to the dense checker exactly as it would uncached.
            feas = None
        conn = [(wd.index[u], wd.index[v]) for (u, v, _key), _w in graph.connections()]
        conn_arr = (
            np.asarray(conn, dtype=np.int64).reshape(len(conn), 2)
            if conn
            else np.empty((0, 2), dtype=np.int64)
        )
        return cls(
            schema=COMPILE_SCHEMA,
            fingerprint=fingerprint,
            circuit=graph.name,
            n=len(order),
            order=order,
            index=dict(wd.index),
            wd=wd,
            t_init=clock_period(graph, wd),
            max_delay=wd.max_vertex_delay(),
            candidates=candidate_periods(wd),
            exact_candidates=candidate_periods(wd, tol=0.0),
            feas=feas,
            conn_u=np.ascontiguousarray(conn_arr[:, 0]),
            conn_v=np.ascontiguousarray(conn_arr[:, 1]),
            components=graph.weakly_connected_components(),
            clock_pair_sets={},
        )

    # -- solve-side accessors ------------------------------------------
    def clock_pairs(
        self, period: float, prune: bool = True
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(pruned) clocking index pairs for ``period``, memoised.

        Raises :class:`InfeasiblePeriodError` when a single unit's
        delay exceeds the period, mirroring
        :func:`repro.retime.constraints.clock_constraints` so the
        planner's degrade path behaves identically with or without an
        artifact.
        """
        if self.max_delay > period:
            raise InfeasiblePeriodError(
                period,
                f"a single unit has delay {self.max_delay} > period {period}",
            )
        key = (float(period), bool(prune))
        cached = self.clock_pair_sets.get(key)
        if cached is not None:
            return cached
        rows, cols = self.wd.pairs_exceeding_arrays(period)
        if prune:
            rows, cols = prune_redundant_arrays(self.wd, period, rows, cols)
        pair = (np.ascontiguousarray(rows), np.ascontiguousarray(cols))
        self.clock_pair_sets[key] = pair
        self.dirty = True
        return pair

    def feas_probe(self) -> Optional[FeasProbe]:
        """The FEAS engine with per-run scratch state reset."""
        if self.feas is not None:
            self.feas.last_rounds = 0
        return self.feas

    def note_min_period(self, t_min: float, labels: Dict[str, int]) -> None:
        """Record the min-period search outcome (pre-normalise labels)."""
        self.t_min = float(t_min)
        self.t_min_labels = {str(k): int(v) for k, v in labels.items()}
        self.dirty = True
