"""Warm-started incremental weighted min-area retiming.

This is the one min-area solver: :func:`repro.retime.minarea.min_area_retiming`
solves through it (building one when the caller passes none), and
LAC-retiming (:mod:`repro.core.lac`) solves up to ``max_rounds``
weighted min-area retimings over *one* constraint system — only the
objective (per-unit area weights, hence node demands) changes between
rounds. The planner hands one instance to both, so the min-area
baseline and LAC's uniform-weight first round are one solve.

:class:`IncrementalMinArea` amortises everything that doesn't change:

* the system's constraint table is collapsed to one arc per
  ``(u, v)`` pair once, at construction, with
  :func:`~repro.retime.constraints.tightest_rows` — no per-round arc
  construction, and the LP rows keep the table's order;
* feasibility is checked once, at construction, by the retiming
  engine's one Bellman–Ford (:func:`repro.retime.fastcheck.relax`); an
  infeasible system (negative-cost constraint cycle) surfaces there,
  as :class:`InfeasiblePeriodError`;
* the retiming LP ``min c^T r`` s.t. ``r_u - r_v <= b`` is loaded once
  into a persistent HiGHS model (the compiled solver bundled with
  scipy); each round only the objective column costs change, so dual
  simplex restarts from the previous round's optimal basis (engine
  ``"highs"``). The constraint matrix is totally unimodular, so every
  vertex solution is integral. When :func:`_load_highs` finds no
  bindings (they live in a private scipy module) or HiGHS rejects the
  model, each round is a cold :func:`scipy.optimize.linprog` solve of
  the same LP instead (engine ``"linprog"``, public API);
* a solve whose objective vector equals the previous one returns the
  previous labels without touching the engine (a *replay*): with
  uniform weights, LAC's first round is exactly the min-area baseline.

Each solve is an exact LP optimum either way — warm-starting changes
where the search *starts*, not what it converges to — so the objective
value matches a cold network-simplex solve exactly (the test suite
asserts this against ``tests/oracles/flow.py`` across synthetic
circuits and all LAC rounds). Individual labels may differ between
engines when the optimum is degenerate; only the objective value is
canonical.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Mapping, Optional

import numpy as np
from scipy.sparse import csr_matrix

from repro.errors import (
    InfeasibleConstraintsError,
    InfeasiblePeriodError,
    UnboundedObjectiveError,
)
from repro.netlist.graph import CircuitGraph
from repro.retime.constraints import ConstraintSystem, tightest_rows
from repro.retime.fastcheck import group_arcs, relax
from repro.retime.minarea import WEIGHT_SCALE, normalise_labels


def _load_highs():
    """Return scipy's vendored HiGHS bindings, or None.

    The bindings live in a private scipy module
    (``scipy.optimize._highspy``); gate on import so environments with
    an older/newer scipy fall back to cold ``linprog`` solves instead
    of crashing.
    """
    try:
        from scipy.optimize._highspy import _core  # type: ignore
    except Exception:  # pragma: no cover - depends on scipy build
        return None
    if not hasattr(_core, "_Highs"):  # pragma: no cover
        return None
    return _core


def _lp_rows(tails: np.ndarray, heads: np.ndarray, bounds: np.ndarray):
    """Row-wise ``(start, index, value, upper)`` of ``r_t - r_h <= b``.

    Vacuous self-loops (``r_u - r_u <= b`` with ``b >= 0``) would put a
    duplicate column index in a row, which HiGHS rejects; negative ones
    never get here (the construction-time feasibility check).
    """
    keep = tails != heads
    m = int(keep.sum())
    start = np.arange(0, 2 * m + 1, 2, dtype=np.int32)
    index = np.empty(2 * m, dtype=np.int32)
    index[0::2] = tails[keep]
    index[1::2] = heads[keep]
    value = np.empty(2 * m)
    value[0::2] = 1.0
    value[1::2] = -1.0
    return start, index, value, bounds[keep].astype(np.float64)


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
        start, index, value, upper = _lp_rows(tails, heads, bounds)
        m = len(upper)
        inf = core.kHighsInf
        lp = core.HighsLp()
        lp.num_col_ = n
        lp.num_row_ = m
        lp.col_cost_ = np.zeros(n)
        lp.col_lower_ = np.full(n, -inf)
        lp.col_upper_ = np.full(n, inf)
        lp.row_lower_ = np.full(m, -inf)
        lp.row_upper_ = upper
        matrix = lp.a_matrix_
        matrix.format_ = core.MatrixFormat.kRowwise
        matrix.start_ = start
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


class _LinprogEngine:
    """A cold :func:`scipy.optimize.linprog` solve of the same LP per call."""

    def __init__(
        self,
        n: int,
        tails: np.ndarray,
        heads: np.ndarray,
        bounds: np.ndarray,
    ):
        start, index, value, upper = _lp_rows(tails, heads, bounds)
        self._a = csr_matrix((value, index, start), shape=(len(upper), n))
        self._upper = upper
        self.simplex_iterations = 0

    def solve(self, coeff: np.ndarray) -> np.ndarray:
        """Optimal integral labels for objective vector ``coeff``."""
        # Imported here, as in _load_highs: scipy.optimize loads only
        # once a min-area solver is built, not when repro is imported.
        from scipy.optimize import linprog

        res = linprog(
            coeff.astype(np.float64),
            A_ub=self._a,
            b_ub=self._upper,
            bounds=(None, None),
            method="highs-ds",
        )
        self.simplex_iterations += int(res.nit)
        if res.status == 3:
            raise UnboundedObjectiveError(
                "retiming objective unbounded on the feasible region"
            )
        if res.status != 0:
            raise InfeasibleConstraintsError(
                f"linprog terminated with status {res.status}: {res.message}"
            )
        return np.rint(res.x).astype(np.int64)


@dataclasses.dataclass
class IncrementalStats:
    """Counters for one :class:`IncrementalMinArea` instance."""

    engine: str = ""
    solves: int = 0
    replays: int = 0
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
            (not modified; only its hosts are read, when labels are
            normalised).
        system: The difference-constraint system (edge + host +
            clocking) for the target period, from
            :func:`~repro.retime.constraints.build_constraint_system`;
            its compiled artifact supplies the vertex order, the
            objective gather arrays and the component list.

    The solving engine (``stats.engine``) is ``"highs"`` when scipy's
    bindings load and accept the model, else ``"linprog"``.

    Raises:
        InfeasiblePeriodError: The system has no solution (negative
            constraint cycle) — raised at construction, since no
            reweighting can fix it.
        ValueError: ``system`` was generated for another graph.
    """

    def __init__(self, graph: CircuitGraph, system: ConstraintSystem):
        start = time.perf_counter()
        compiled = system.compiled
        compiled.check_graph(graph)
        self.graph = graph
        self.system = system
        self._order: List[str] = compiled.order
        n = len(self._order)

        # one arc per (u, v) pair, collapsed to the tightest bound.
        table = system.constraints
        arcs = tightest_rows(table["u"], table["v"], table["bound"])
        tails, heads, bounds = arcs["u"], arcs["v"], arcs["bound"]

        # objective machinery: each connection (u, v) adds the scaled
        # fanin weight A(u) to c_v and subtracts it from c_u.
        self._conn_u = compiled.conn_u
        self._conn_v = compiled.conn_v
        self._components = compiled.components

        # Feasibility runs once whichever engine solves.
        arcs = group_arcs(n, tails, heads, bounds)
        if relax(arcs, np.zeros(n, dtype=np.int64)).labels is None:
            raise InfeasiblePeriodError(
                system.period, "negative-cost constraint cycle"
            )

        try:
            self._engine = _HighsEngine(n, tails, heads, bounds)
            self.engine = "highs"
        except RuntimeError:  # no bindings, or HiGHS rejected the model
            self._engine = _LinprogEngine(n, tails, heads, bounds)
            self.engine = "linprog"
        self.stats = IncrementalStats(engine=self.engine)
        self.stats.bellman_ford_runs += 1
        self._last_coeff: Optional[np.ndarray] = None
        self._last_labels: Dict[str, int] = {}
        self.stats.build_seconds = time.perf_counter() - start

    # ------------------------------------------------------------------
    def objective_coefficients(
        self, weights: Optional[Mapping[str, float]] = None
    ) -> np.ndarray:
        """Integer demand vector ``c``, indexed like the artifact's
        ``order``: the objective ``sum_v c_v * r(v)`` of the (weighted)
        min-area LP. Each unit's weight is scaled to an integer
        (:data:`~repro.retime.minarea.WEIGHT_SCALE`, at least 1;
        uniform 1 when ``weights`` is omitted), and each connection
        ``(u, v)`` adds ``u``'s scaled weight to ``c_v`` and subtracts
        it from ``c_u``, so the coefficients sum to zero exactly."""
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

        Only the objective changes between calls; the HiGHS model is
        reused — see the module docstring for why its warm start is
        sound. An objective equal to the previous call's is a replay:
        the previous labels come back (as a fresh dict) and
        ``stats.replays`` counts it instead of ``stats.solves``.

        Raises:
            UnboundedObjectiveError: The demands cannot be routed
                (objective unbounded on the feasible region).
        """
        start = time.perf_counter()
        coeff = self.objective_coefficients(weights)
        if self._last_coeff is not None and np.array_equal(coeff, self._last_coeff):
            self.stats.replays += 1
            self.stats.solve_seconds += time.perf_counter() - start
            return dict(self._last_labels)
        before = self._engine.simplex_iterations
        r = self._engine.solve(coeff)
        self.stats.simplex_iterations += self._engine.simplex_iterations - before
        labels = {u: int(r[i]) for i, u in enumerate(self._order)}
        labels = normalise_labels(self.graph, labels, self._components)
        self._last_coeff = coeff
        self._last_labels = dict(labels)
        self.stats.solves += 1
        self.stats.solve_seconds += time.perf_counter() - start
        return labels
