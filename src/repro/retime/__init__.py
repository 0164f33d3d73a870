"""Retiming engine: W/D matrices, constraints, min-area / min-period."""

from repro.retime.constraints import (
    Constraint,
    ConstraintSystem,
    build_constraint_system,
    edge_constraints,
    host_constraints,
    prune_redundant_arrays,
)
from repro.retime.feas_probe import FeasProbe
from repro.retime.incremental import IncrementalMinArea, IncrementalStats
from repro.retime.minarea import (
    RetimingResult,
    min_area_retiming,
    normalise_labels,
    retiming_objective,
)
from repro.retime.minperiod import min_period_retiming
from repro.retime.wd import WDMatrices, candidate_periods, clock_period, wd_matrices

__all__ = [
    "WDMatrices",
    "wd_matrices",
    "candidate_periods",
    "Constraint",
    "ConstraintSystem",
    "edge_constraints",
    "host_constraints",
    "prune_redundant_arrays",
    "build_constraint_system",
    "FeasProbe",
    "IncrementalMinArea",
    "IncrementalStats",
    "RetimingResult",
    "retiming_objective",
    "min_area_retiming",
    "normalise_labels",
    "clock_period",
    "min_period_retiming",
]
