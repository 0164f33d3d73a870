"""The compiled-circuit artifact: everything the retiming solve needs
that depends only on the (expanded) circuit graph and the tech
parameters.

Compilation is the expensive, *pure* front half of a planning
iteration. An artifact has two halves:

* the **replay record**, which is what gets pickled: vertex order, the
  connection arrays (both ends and the weight of every connection) and
  unit delays that :meth:`CompiledCircuit.check_graph` compares and the
  min-area objective gathers from, ``T_init``, the largest unit
  delay, the candidate-period count and — filled in lazily as the
  solve runs — per-period clocking-row tables (bounds ``W(u, v) - 1``)
  and the minimum-period witness. A warm re-plan replays the solve
  from this record alone;
* the **search inputs**, memory-only: dense W/D matrices (scalarised
  Johnson) and the candidate periods. A fresh compile computes them;
  an artifact loaded from disk (or restored from a checkpoint)
  rebuilds them from the expanded graph only when a solve needs
  something the record lacks (a min-period search with no witness, or
  clocking rows for a new period that no witness table covers).

Artifacts are content-addressed: :func:`compile_fingerprint` hashes the
circuit JSON (:func:`repro.netlist.io.graph_to_dict`) and the
:class:`~repro.tech.params.Technology` fields. The planner compiles the
*expanded* graph of each iteration, whose content already reflects
every upstream stage (partition seed, floorplan, routes, repeaters), so
equal fingerprints really do mean equal solve inputs — and therefore
bit-identical results. Every retiming entry point checks the graph it
is handed against the record (:meth:`CompiledCircuit.check_graph`:
vertex order, connections, weights and delays), and a rebuild checks it
against the fingerprint, so nothing is ever read for another circuit.
The run's plumbing (the cache itself, telemetry sinks, resilience
posture) lives in a :class:`~repro.core.context.RunContext` and never
reaches the hash.
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
from repro.obs import NOOP_TRACER
from repro.retime.constraints import WitnessTable, clock_rows
from repro.retime.wd import WDMatrices, candidate_periods, clock_period, wd_matrices
from repro.tech.params import DEFAULT_TECH, Technology

#: On-disk artifact schema (also the fingerprint domain separator).
COMPILE_SCHEMA = "repro-compile/4"

#: The memory-only fields: never pickled, rebuilt from the graph.
_SEARCH_FIELDS = ("wd", "candidates")


def _search_field():
    return dataclasses.field(default=None, compare=False, repr=False)


def _search_inputs(graph: CircuitGraph) -> dict:
    """The memory-only fields of a compile of ``graph``, by name.

    Raises :class:`~repro.errors.RetimingError` on a zero-weight cycle
    (a combinational loop, :meth:`CircuitGraph.combinational_loop`),
    including a zero-weight self-loop: :func:`~repro.retime.wd.wd_matrices`
    refuses such a cycle only when it holds some delay, yet no period
    is meaningful with one.
    """
    loop = graph.combinational_loop()
    if loop is not None:
        raise RetimingError(f"{loop}; period feasibility undefined")
    wd = wd_matrices(graph)
    return {"wd": wd, "candidates": candidate_periods(wd)}


def compile_fingerprint(graph: CircuitGraph, tech: Technology = DEFAULT_TECH) -> str:
    """Content hash naming the compilation of ``graph``.

    Any perturbation of the circuit (a unit, a delay, a connection
    weight) or of the tech parameters changes the digest, so a cache
    keyed by it can never serve a stale artifact.
    """
    doc = {
        "schema": COMPILE_SCHEMA,
        "graph": graph_to_dict(graph),
        "tech": dataclasses.asdict(tech),
        # The retired constraint-pruning switch, at the only value it
        # had left: hashing it keeps every stored digest valid.
        "config": {"prune": True},
    }
    blob = json.dumps(doc, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _canonical_components(components) -> List[Tuple[str, ...]]:
    """Components in an order fixed by their unit names alone."""
    return sorted(tuple(sorted(c)) for c in components)


@dataclasses.dataclass
class CompiledCircuit:
    """One circuit, compiled: a persisted replay record plus memory-only
    search inputs (see the module docstring).

    ``clock_pair_sets`` and the ``t_min`` witness start empty and are
    filled in by the first solve (marking the artifact ``dirty`` so the
    cache persists the enriched version); on a warm hit the solve skips
    the min-period search and constraint pruning entirely.
    """

    schema: str
    fingerprint: str
    circuit: str
    tech: Technology
    n: int
    order: List[str]
    t_init: float
    max_delay: float
    n_candidates: int
    conn_u: np.ndarray
    conn_v: np.ndarray
    conn_w: np.ndarray
    delays: np.ndarray
    #: Weakly connected components as sorted tuples in a sorted list,
    #: so the pickle does not depend on the per-process string hash.
    components: List[Tuple[str, ...]]
    #: Clocking-row tables (:func:`~repro.retime.constraints.clock_rows`)
    #: per period.
    clock_pair_sets: Dict[float, np.ndarray]
    t_min: Optional[float] = None
    t_min_labels: Optional[Dict[str, int]] = None
    #: Search inputs: set by :meth:`compile` and
    #: :meth:`rebuild_search_inputs`, ``None`` on a loaded artifact.
    wd: Optional[WDMatrices] = _search_field()
    #: Sorted distinct finite ``D`` values (float64).
    candidates: Optional[np.ndarray] = _search_field()
    #: True when the artifact holds solve by-products not yet persisted.
    dirty: bool = dataclasses.field(default=False, compare=False)

    @classmethod
    def compile(
        cls,
        graph: CircuitGraph,
        tech: Technology = DEFAULT_TECH,
        fingerprint: Optional[str] = None,
    ) -> "CompiledCircuit":
        """Run the full compile front half on ``graph``."""
        if fingerprint is None:
            fingerprint = compile_fingerprint(graph, tech)
        view = graph.arrays()
        order = list(view.order)
        search = _search_inputs(graph)
        wd = search["wd"]
        return cls(
            schema=COMPILE_SCHEMA,
            fingerprint=fingerprint,
            circuit=graph.name,
            tech=tech,
            n=len(order),
            order=order,
            t_init=clock_period(graph, wd),
            max_delay=wd.max_vertex_delay(),
            n_candidates=len(search["candidates"]),
            conn_u=view.u,
            conn_v=view.v,
            conn_w=view.w,
            delays=view.delays,
            components=_canonical_components(graph.weakly_connected_components()),
            clock_pair_sets={},
            **search,
        )

    @classmethod
    def for_graph(
        cls, graph: CircuitGraph, compiled: Optional["CompiledCircuit"] = None
    ) -> "CompiledCircuit":
        """The artifact a retiming entry point reads: ``compiled``, once
        :meth:`check_graph` accepts ``graph``, or a fresh compile of
        ``graph``."""
        if compiled is None:
            return cls.compile(graph)
        compiled.check_graph(graph)
        return compiled

    def check_graph(self, graph: CircuitGraph) -> None:
        """Refuse a graph this artifact was not compiled from.

        Compares the vertex order, the connection ends and weights and
        the unit delays: another circuit with as many units under the
        same names, or a copy with one weight or delay changed, would
        read wrong W/D, candidates and clocking rows.

        Raises:
            ValueError: ``graph`` has other units, connections, weights
                or delays.
        """
        view = graph.arrays()
        mine = (self.conn_u, self.conn_v, self.conn_w, self.delays)
        theirs = (view.u, view.v, view.w, view.delays)
        same = list(view.order) == self.order and all(
            np.array_equal(a, b) for a, b in zip(theirs, mine)
        )
        if not same:
            raise ValueError(
                f"graph {graph.name!r} does not match compiled artifact "
                f"{self.fingerprint[:16]} ({self.circuit}): its units, "
                "connections, weights or delays differ"
            )

    def __getstate__(self) -> dict:
        # Pickle the replay record only: the search inputs are >97% of
        # a compile's bytes and a replayed solve never reads them.
        state = dict(self.__dict__)
        for name in _SEARCH_FIELDS:
            state.pop(name, None)
        # Artifacts loaded from older files hold frozensets.
        state["components"] = _canonical_components(self.components)
        return state

    def __setstate__(self, state: dict) -> None:
        if state.pop("prune", None) is not None:
            # A record written while the unpruned system still existed
            # keys its tables by (period, prune); only pruned ones serve.
            state["clock_pair_sets"] = {
                period: table
                for (period, pruned), table in state["clock_pair_sets"].items()
                if pruned
            }
        self.__dict__.update(state)
        self.__dict__.update(dict.fromkeys(_SEARCH_FIELDS))

    def is_current(self) -> bool:
        """False for an artifact pickled under an older schema.

        A checkpoint store restoring a stage result calls this, so a
        compile stage snapshot written before a layout change (e.g.
        the replay record losing the W/D matrices) is recomputed, not
        resumed.
        """
        return self.schema == COMPILE_SCHEMA

    # -- search inputs -------------------------------------------------
    def rebuild_search_inputs(
        self, graph: Optional[CircuitGraph], reason: str, tracer=None
    ) -> None:
        """Make ``wd`` and ``candidates`` available, recomputing them
        from ``graph`` if this artifact was loaded without them (a
        no-op otherwise).

        ``reason`` (``"min_period"`` or ``"clock_pairs"``) names the
        solve path that needed them; it rides on the ``compile/rebuild``
        span ``tracer`` records.

        Raises:
            ValueError: ``graph`` is missing, or is not the graph this
                artifact compiles (its fingerprint differs).
        """
        if self.wd is not None:
            return
        if graph is None:
            raise ValueError(
                f"artifact {self.fingerprint[:16]} ({self.circuit}) was loaded "
                f"without its search inputs; {reason} needs the graph to rebuild them"
            )
        if tracer is None:
            tracer = NOOP_TRACER
        with tracer.span("compile/rebuild", reason=reason, circuit=self.circuit):
            if compile_fingerprint(graph, self.tech) != self.fingerprint:
                raise ValueError(
                    f"graph {graph.name!r} does not match compiled artifact "
                    f"{self.fingerprint[:16]} ({self.circuit}); refusing to "
                    "rebuild its search inputs"
                )
            self.__dict__.update(_search_inputs(graph))

    # -- solve-side accessors ------------------------------------------
    def clock_pairs(
        self,
        period: float,
        *,
        graph: Optional[CircuitGraph] = None,
        tracer=None,
        witness: Optional[WitnessTable] = None,
    ) -> np.ndarray:
        """The clocking-row table for ``period``
        (:func:`~repro.retime.constraints.clock_rows`), memoised per
        period.

        A stored period is answered from the replay record. A new one
        is a mask of ``witness`` (a table of this artifact's W/D,
        e.g. the min-period search's) when its floor is at or below
        ``period``; otherwise the rows are built, which needs the W/D
        matrices and so may rebuild the search inputs from ``graph``
        (required then). Raises :class:`InfeasiblePeriodError` when a
        single unit's delay exceeds the period (no retiming can fix
        that).
        """
        if self.max_delay > period:
            raise InfeasiblePeriodError(
                period,
                f"a single unit has delay {self.max_delay} > period {period}",
            )
        period = float(period)
        cached = self.clock_pair_sets.get(period)
        if cached is not None:
            return cached
        if witness is not None and witness.wd is not self.wd:
            raise ValueError("witness table is not of this artifact's W/D matrices")
        if witness is not None and witness.floor <= period:
            pairs = witness.rows(period)
        else:
            self.rebuild_search_inputs(graph, "clock_pairs", tracer=tracer)
            pairs = clock_rows(self.wd, period)
        self.clock_pair_sets[period] = pairs
        self.dirty = True
        return pairs

    def note_min_period(self, t_min: float, labels: Dict[str, int]) -> None:
        """Record the min-period search outcome (pre-normalise labels)."""
        self.t_min = float(t_min)
        self.t_min_labels = {str(k): int(v) for k, v in labels.items()}
        self.dirty = True
