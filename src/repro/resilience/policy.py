"""Per-stage execution policies for the resilient planner.

A :class:`StagePolicy` says how one pipeline stage may be executed:
how many attempts it gets, which exceptions justify a retry, and an
optional per-attempt wall-clock deadline. A :class:`ResilienceConfig`
maps stage names to policies and carries flow-level switches such as
graceful ``T_clk`` degradation.

Stage names used by the planner:

``partition``, ``floorplan``, ``tiles``, ``route``, ``repeater``,
``expand``, ``retime``, ``expand_floorplan``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple, Type

from repro.errors import ReproError


@dataclasses.dataclass(frozen=True)
class StagePolicy:
    """How one stage may be executed.

    Attributes:
        max_attempts: Tries of the primary variant (>= 1). Retries are
            meaningful for seeded stages (floorplan SA, routing
            jitter): the runner passes the attempt index so the stage
            can perturb its seed.
        timeout: Per-attempt wall-clock deadline in seconds; ``None``
            disables the deadline. A blown deadline counts like a
            retryable failure (:class:`~repro.errors.StageTimeoutError`).
        retry_on: Exception classes that justify another attempt.
            Anything else propagates immediately — genuine bugs
            should not be masked by retries.
    """

    max_attempts: int = 1
    timeout: Optional[float] = None
    retry_on: Tuple[Type[BaseException], ...] = (ReproError,)

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {self.timeout}")


@dataclasses.dataclass
class ResilienceConfig:
    """Flow-level resilience settings: stage policies plus switches.

    Attributes:
        policies: Stage name -> policy; stages not listed use
            ``default_policy``.
        default_policy: Policy for unlisted stages.
        degrade_t_clk: When an inherited target period is below the
            iteration's ``T_min`` (infeasible), retime at ``T_min``
            (recording a ``degraded`` iteration) instead of marking the
            iteration infeasible.
    """

    policies: Dict[str, StagePolicy] = dataclasses.field(default_factory=dict)
    default_policy: StagePolicy = dataclasses.field(default_factory=StagePolicy)
    degrade_t_clk: bool = True

    def policy_for(self, stage: str) -> StagePolicy:
        return self.policies.get(stage, self.default_policy)

    def with_timeout(self, seconds: Optional[float]) -> "ResilienceConfig":
        """Copy of this config with every stage given a deadline."""
        policies = {
            name: dataclasses.replace(p, timeout=seconds)
            for name, p in self.policies.items()
        }
        return ResilienceConfig(
            policies=policies,
            default_policy=dataclasses.replace(
                self.default_policy, timeout=seconds
            ),
            degrade_t_clk=self.degrade_t_clk,
        )


def default_resilience() -> ResilienceConfig:
    """The planner's default posture.

    Seeded, stochastic stages (floorplan annealing, routing with
    placement jitter) get a second attempt with a perturbed seed; the
    deterministic stages run once. ``T_clk`` degradation is on.
    """
    return ResilienceConfig(
        policies={
            "floorplan": StagePolicy(max_attempts=2),
            "route": StagePolicy(max_attempts=2),
        }
    )
