"""Retiming engine: W/D matrices, constraints, min-area / min-period."""

from repro.retime.constraints import (
    Constraint,
    ConstraintSystem,
    build_constraint_system,
    clock_constraints,
    edge_constraints,
    host_constraints,
    prune_redundant,
)
from repro.retime.feas_probe import FeasProbe, FeasUndecidedError
from repro.retime.flow import optimal_labels
from repro.retime.incremental import IncrementalMinArea, IncrementalStats
from repro.retime.minarea import (
    RetimingResult,
    min_area_retiming,
    normalise_labels,
    retiming_objective,
)
from repro.retime.minperiod import clock_period, min_period_retiming
from repro.retime.sharing import min_area_retiming_shared, shared_register_count
from repro.retime.wd import WDMatrices, candidate_periods, wd_matrices

__all__ = [
    "WDMatrices",
    "wd_matrices",
    "candidate_periods",
    "Constraint",
    "ConstraintSystem",
    "edge_constraints",
    "host_constraints",
    "clock_constraints",
    "prune_redundant",
    "build_constraint_system",
    "FeasProbe",
    "FeasUndecidedError",
    "optimal_labels",
    "IncrementalMinArea",
    "IncrementalStats",
    "RetimingResult",
    "retiming_objective",
    "min_area_retiming",
    "min_area_retiming_shared",
    "shared_register_count",
    "normalise_labels",
    "clock_period",
    "min_period_retiming",
]
