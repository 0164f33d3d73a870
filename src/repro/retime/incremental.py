"""Warm-started incremental weighted min-area retiming.

LAC-retiming (:mod:`repro.core.lac`) solves up to ``max_rounds``
weighted min-area retimings over *one* constraint system — only the
objective (per-unit area weights, hence node demands) changes between
rounds. The one-shot path (:func:`repro.retime.minarea.min_area_retiming`)
pays the full cost every round: arc construction from the constraints,
a solver model build, and a cold solve.

:class:`IncrementalMinArea` amortises everything that doesn't change:

* constraints are collapsed to one arc per ``(u, v)`` pair once, at
  construction — no per-round arc construction;
* Bellman–Ford over those arcs runs once, at construction — which is
  also where an infeasible system (negative-cost constraint cycle)
  surfaces, as :class:`InfeasiblePeriodError`;
* re-solves are warm-started from the previous optimum, on HiGHS when
  scipy ships the bindings and on SSP otherwise:

  - ``"highs"`` — the retiming LP ``min c^T r`` s.t.
    ``r_u - r_v <= b`` is loaded once into a persistent HiGHS model
    (the compiled solver bundled with scipy); each round only the
    objective column costs change, so dual simplex restarts from the
    previous round's optimal basis. The constraint matrix is totally
    unimodular, so every vertex solution is integral.
  - ``"ssp"`` — the in-house successive-shortest-path solver
    (:class:`repro.retime.mcf._Network`) on the LP's flow dual; node
    potentials carry over between solves (at an optimum every forward
    arc keeps residual capacity, so the final potentials price all
    arcs non-negatively and remain valid Dijkstra potentials after a
    flow reset — no fresh Bellman–Ford). Pure Python; the only path
    when :func:`_load_highs` finds no bindings (or HiGHS rejects the
    model).

Each solve is an exact LP optimum either way — warm-starting changes
where the search *starts*, not what it converges to — so the objective
value matches a cold :func:`min_area_retiming` solve exactly (the test
suite asserts this across synthetic circuits and all LAC rounds).
Individual labels may differ between engines when the optimum is
degenerate; only the objective value is canonical.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.errors import (
    InfeasibleConstraintsError,
    InfeasiblePeriodError,
    UnboundedObjectiveError,
)
from repro.netlist.graph import CircuitGraph
from repro.retime.constraints import ConstraintSystem
from repro.retime.mcf import _Network
from repro.retime.minarea import WEIGHT_SCALE, normalise_labels


def _load_highs():
    """Return scipy's vendored HiGHS bindings, or None.

    The bindings live in a private scipy module
    (``scipy.optimize._highspy``); gate on import so environments with
    an older/newer scipy fall back to the pure-Python engine instead
    of crashing.
    """
    try:
        from scipy.optimize._highspy import _core  # type: ignore
    except Exception:  # pragma: no cover - depends on scipy build
        return None
    if not hasattr(_core, "_Highs"):  # pragma: no cover
        return None
    return _core


class _HighsEngine:
    """One persistent HiGHS model; re-solved with updated costs only."""

    def __init__(
        self,
        n: int,
        tails: np.ndarray,
        heads: np.ndarray,
        bounds: np.ndarray,
    ):
        core = _load_highs()
        if core is None:
            raise RuntimeError("scipy HiGHS bindings unavailable")
        self._core = core
        self.n = n
        # Vacuous self-loops (r_u - r_u <= b with b >= 0) would put a
        # duplicate column index in a row, which passModel rejects;
        # negative ones are caught earlier by Bellman-Ford.
        keep = tails != heads
        t = np.asarray(tails[keep], dtype=np.int32)
        h = np.asarray(heads[keep], dtype=np.int32)
        b = np.asarray(bounds[keep], dtype=np.float64)
        m = len(t)
        inf = core.kHighsInf
        lp = core.HighsLp()
        lp.num_col_ = n
        lp.num_row_ = m
        lp.col_cost_ = np.zeros(n)
        lp.col_lower_ = np.full(n, -inf)
        lp.col_upper_ = np.full(n, inf)
        lp.row_lower_ = np.full(m, -inf)
        lp.row_upper_ = b
        matrix = lp.a_matrix_
        matrix.format_ = core.MatrixFormat.kRowwise
        matrix.start_ = np.arange(0, 2 * m + 1, 2, dtype=np.int32)
        index = np.empty(2 * m, dtype=np.int32)
        index[0::2] = t
        index[1::2] = h
        value = np.empty(2 * m)
        value[0::2] = 1.0
        value[1::2] = -1.0
        matrix.index_ = index
        matrix.value_ = value
        lp.a_matrix_ = matrix
        solver = core._Highs()
        solver.setOptionValue("output_flag", False)
        status = solver.passModel(lp)
        if status == core.HighsStatus.kError:
            raise RuntimeError("HiGHS rejected the retiming LP")
        self._solver = solver
        self._cols = np.arange(n, dtype=np.int32)

    def solve(self, coeff: np.ndarray) -> np.ndarray:
        """Optimal integral labels for objective vector ``coeff``."""
        core = self._core
        solver = self._solver
        solver.changeColsCost(self.n, self._cols, coeff.astype(np.float64))
        solver.run()
        status = solver.getModelStatus()
        if status != core.HighsModelStatus.kOptimal:
            if status == core.HighsModelStatus.kUnbounded:
                raise UnboundedObjectiveError(
                    "retiming objective unbounded on the feasible region"
                )
            raise InfeasibleConstraintsError(
                f"HiGHS terminated with status {status}"
            )
        x = np.asarray(solver.getSolution().col_value)
        return np.rint(x).astype(np.int64)

    @property
    def simplex_iterations(self) -> int:
        return int(self._solver.getInfo().simplex_iteration_count)


@dataclasses.dataclass
class IncrementalStats:
    """Counters for one :class:`IncrementalMinArea` instance."""

    engine: str = ""
    solves: int = 0
    augmentations: int = 0
    simplex_iterations: int = 0
    bellman_ford_runs: int = 0
    build_seconds: float = 0.0
    solve_seconds: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


class IncrementalMinArea:
    """Re-solvable weighted min-area retiming over a fixed system.

    Args:
        graph: The circuit the constraint system was generated for
            (not modified; only its structure and connections are
            read, once, at construction).
        system: The difference-constraint system (edge + host +
            clocking) for the target period.

    The solving engine (``stats.engine``) is ``"highs"`` when scipy's
    bindings load and accept the model, else ``"ssp"``.

    Raises:
        InfeasiblePeriodError: The system has no solution (negative
            constraint cycle) — raised at construction, since no
            reweighting can fix it.
    """

    def __init__(
        self,
        graph: CircuitGraph,
        system: ConstraintSystem,
        compiled=None,
    ):
        start = time.perf_counter()
        self.graph = graph
        self.system = system
        # A CompiledCircuit of the same graph already holds the vertex
        # order, the objective gather arrays and the component list —
        # reuse them instead of re-walking the graph.
        reuse = compiled is not None and getattr(compiled, "n", -1) == graph.num_units
        if reuse:
            self._order: List[str] = list(compiled.order)
            index = compiled.index
        else:
            self._order = list(graph.units())
            index = {u: i for i, u in enumerate(self._order)}
        self._index = index

        # one arc per (u, v) pair, collapsed to the tightest bound —
        # exactly what solve_retiming_dual builds per call.
        best: Dict[tuple, float] = {}
        for c in system.constraints:
            key = (c.u, c.v)
            if key not in best or c.bound < best[key]:
                best[key] = c.bound
        tails = [index[u] for (u, _v) in best]
        heads = [index[v] for (_u, v) in best]
        costs = [float(b) for b in best.values()]
        self._net = _Network(len(self._order), tails, heads, costs)

        # objective machinery: each connection (u, v) adds the scaled
        # fanin weight A(u) to c_v and subtracts it from c_u.
        if reuse:
            self._conn_u = compiled.conn_u
            self._conn_v = compiled.conn_v
            self._components = compiled.components
        else:
            conn_u = []
            conn_v = []
            for (u, v, _key), _w in graph.connections():
                conn_u.append(index[u])
                conn_v.append(index[v])
            self._conn_u = np.asarray(conn_u, dtype=np.int64)
            self._conn_v = np.asarray(conn_v, dtype=np.int64)
            self._components = graph.weakly_connected_components()

        # Bellman-Ford runs once whichever engine solves: it is the
        # feasibility check (negative constraint cycle) and it seeds
        # the SSP potentials.
        try:
            self._potential = self._net.bellman_ford()
        except InfeasibleConstraintsError as exc:
            raise InfeasiblePeriodError(system.period, str(exc)) from exc

        self._highs: Optional[_HighsEngine] = None
        try:
            self._highs = _HighsEngine(
                len(self._order),
                self._net._bf_tails,
                self._net._bf_heads,
                self._net._bf_costs,
            )
        except RuntimeError:
            pass  # no bindings, or HiGHS rejected the model: SSP
        self.engine = "highs" if self._highs is not None else "ssp"
        self.stats = IncrementalStats(engine=self.engine)
        self.stats.bellman_ford_runs += 1
        self.stats.build_seconds = time.perf_counter() - start

    # ------------------------------------------------------------------
    def objective_coefficients(
        self, weights: Optional[Mapping[str, float]] = None
    ) -> np.ndarray:
        """Integer demand vector, identical to ``retiming_objective``."""
        n = len(self._order)
        if weights is None:
            scaled = np.ones(n, dtype=np.int64)
        else:
            scaled = np.fromiter(
                (
                    max(1, int(round(weights.get(u, 1.0) * WEIGHT_SCALE)))
                    for u in self._order
                ),
                dtype=np.int64,
                count=n,
            )
        coeff = np.zeros(n, dtype=np.int64)
        fanin_weight = scaled[self._conn_u]
        np.add.at(coeff, self._conn_v, fanin_weight)
        np.subtract.at(coeff, self._conn_u, fanin_weight)
        return coeff

    # ------------------------------------------------------------------
    def solve(
        self, weights: Optional[Mapping[str, float]] = None
    ) -> Dict[str, int]:
        """Optimal normalised labels for the given area weights.

        Only the objective changes between calls; the model (HiGHS) or
        network + potentials (SSP) are reused — see the module
        docstring for why each warm start is sound.

        Raises:
            UnboundedObjectiveError: The demands cannot be routed
                (objective unbounded on the feasible region) — same
                contract as :func:`optimal_labels`.
        """
        start = time.perf_counter()
        coeff = self.objective_coefficients(weights)
        if self._highs is not None:
            before = self._highs.simplex_iterations
            r = self._highs.solve(coeff)
            self.stats.simplex_iterations += (
                self._highs.simplex_iterations - before
            )
            labels = {u: int(r[i]) for i, u in enumerate(self._order)}
        else:
            excess = (-coeff.astype(np.float64)).tolist()
            self._net.reset()
            _cost, n_aug = self._net.run_ssp(excess, self._potential)
            self.stats.augmentations += n_aug
            labels = {
                u: -int(round(self._potential[i]))
                for i, u in enumerate(self._order)
            }
        labels = normalise_labels(self.graph, labels, self._components)
        self.stats.solves += 1
        self.stats.solve_seconds += time.perf_counter() - start
        return labels

    # ------------------------------------------------------------------
    def objective_value(
        self,
        labels: Mapping[str, int],
        weights: Optional[Mapping[str, float]] = None,
    ) -> int:
        """``sum_v c_v * r(v)`` for the scaled integer objective."""
        coeff = self.objective_coefficients(weights)
        r = np.fromiter(
            (labels.get(u, 0) for u in self._order),
            dtype=np.int64,
            count=len(self._order),
        )
        return int(coeff @ r)
