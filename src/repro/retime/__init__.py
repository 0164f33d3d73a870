"""Retiming engine: W/D matrices, the constraint table, min-area / min-period."""

from repro.retime.constraints import (
    ConstraintSystem,
    build_constraint_system,
    clock_rows,
    static_rows,
    tightest_rows,
)
from repro.retime.feas_probe import FeasProbe
from repro.retime.incremental import IncrementalMinArea, IncrementalStats
from repro.retime.minarea import (
    RetimingResult,
    min_area_retiming,
    normalise_labels,
)
from repro.retime.minperiod import min_period_retiming
from repro.retime.wd import WDMatrices, candidate_periods, clock_period, wd_matrices

__all__ = [
    "WDMatrices",
    "wd_matrices",
    "candidate_periods",
    "ConstraintSystem",
    "build_constraint_system",
    "static_rows",
    "clock_rows",
    "tightest_rows",
    "FeasProbe",
    "IncrementalMinArea",
    "IncrementalStats",
    "RetimingResult",
    "min_area_retiming",
    "normalise_labels",
    "clock_period",
    "min_period_retiming",
]
