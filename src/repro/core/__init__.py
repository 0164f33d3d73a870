"""The paper's contribution: LAC-retiming and the planning flow."""

from repro.core.context import RunContext
from repro.core.lac import LACResult, lac_retiming
from repro.core.metrics import AreaAccountant, AreaReport, area_report
from repro.core.placement import (
    PlacedFlipFlop,
    commit_flip_flop_area,
    place_flip_flops,
)
from repro.core.planner import (
    PlannerConfig,
    PlanningIteration,
    PlanningOutcome,
    TimedRetiming,
    plan_interconnect,
    validate_planner_config,
)

__all__ = [
    "lac_retiming",
    "LACResult",
    "area_report",
    "AreaReport",
    "AreaAccountant",
    "place_flip_flops",
    "commit_flip_flop_area",
    "PlacedFlipFlop",
    "PlannerConfig",
    "RunContext",
    "PlanningIteration",
    "PlanningOutcome",
    "TimedRetiming",
    "plan_interconnect",
    "validate_planner_config",
]
