"""Resilience layer for the planning flow.

The planner in :mod:`repro.core.planner` is a seven-stage pipeline in
which, historically, the only anticipated failure was
:class:`~repro.errors.InfeasiblePeriodError`. This subpackage makes
every stage survivable:

* :mod:`repro.resilience.policy` — per-stage execution policies
  (bounded retries, wall-clock deadlines, retryable exception sets);
* :mod:`repro.resilience.runner` — the stage runner that executes a
  callable under a policy with retries and timeouts;
* :mod:`repro.resilience.ledger` — the structured run ledger, a view
  of the stage spans' ``attempt`` and ``note`` events: every attempt,
  error and timing;
* :mod:`repro.resilience.degrade` — graceful ``T_clk`` degradation
  (an inherited period below the iteration's ``T_min`` runs at
  ``T_min``);
* :mod:`repro.resilience.faults` — a deterministic fault-injection
  harness (stage failures, delays, simulated kills, checkpoint
  corruption) so every recovery path is testable in CI;
* :mod:`repro.resilience.batch` — a fault-isolated batch runner used
  by the Table-1 harness and the CLI;
* :mod:`repro.resilience.checkpoint` — crash-safe, versioned
  stage-boundary checkpoints (schema ``repro-ckpt/1``) with atomic
  writes, checksum/fingerprint validation, and quarantine of corrupt
  files, powering ``plan --checkpoint-dir``/``--resume``.

:func:`repro.ioutil.atomic_write` (re-exported here) is the shared
durable-write primitive every on-disk artifact goes through.
"""

from repro.ioutil import atomic_write
from repro.resilience.batch import BatchItem, BatchResult, run_batch
from repro.resilience.checkpoint import (
    CKPT_SCHEMA,
    CheckpointManager,
    run_fingerprint,
)
from repro.resilience.degrade import find_relaxed_period
from repro.resilience.faults import (
    RESULT_FAULT_KINDS,
    RESULT_FAULT_OWNER,
    SERVE_FAULT_KINDS,
    WORKER_CRASH_EXIT,
    CheckpointFault,
    FaultInjector,
    FaultSpec,
    ResultFault,
    ServeFault,
)
from repro.resilience.ledger import RunLedger, StageAttempt, StageRecord
from repro.resilience.policy import (
    ResilienceConfig,
    StagePolicy,
    default_resilience,
)
from repro.resilience.runner import StageRunner

__all__ = [
    "atomic_write",
    "BatchItem",
    "BatchResult",
    "run_batch",
    "CKPT_SCHEMA",
    "CheckpointManager",
    "run_fingerprint",
    "find_relaxed_period",
    "CheckpointFault",
    "FaultInjector",
    "FaultSpec",
    "ResultFault",
    "ServeFault",
    "RESULT_FAULT_KINDS",
    "RESULT_FAULT_OWNER",
    "SERVE_FAULT_KINDS",
    "WORKER_CRASH_EXIT",
    "RunLedger",
    "StageAttempt",
    "StageRecord",
    "ResilienceConfig",
    "StagePolicy",
    "default_resilience",
    "StageRunner",
]
