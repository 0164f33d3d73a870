"""The stage runner: execute pipeline stages under a resilience policy.

``StageRunner.run`` executes a stage callable under the stage's
:class:`~repro.resilience.policy.StagePolicy`:

* each attempt may run under a wall-clock deadline; a blown deadline
  raises :class:`~repro.errors.StageTimeoutError` and counts as a
  retryable failure (the worker thread is abandoned — Python cannot
  kill it — which is the standard soft-timeout trade-off);
* failures in ``policy.retry_on`` consume attempts; any other
  exception propagates immediately so genuine bugs are never masked;
* every try is recorded once, as an ``attempt`` event on the stage
  span (the ledger and the stage metrics are views of them), and
  exhaustion raises :class:`~repro.errors.StageFailedError` carrying
  the full attempt history.

Callables receive the 1-based attempt index so seeded stages can
perturb their seed on retries (``perturbed_seed`` gives the planner's
convention).

With a bound :class:`~repro.resilience.checkpoint.CheckpointManager`
attached, the runner is also the checkpoint boundary: a stage's result
is committed to the store only from the success path (a failed retry
attempt or a blown deadline never commits), and on a resume run a
valid snapshot short-circuits the stage entirely — the stage span
carries a single ``resumed`` attempt and a ``resumed_from`` event
naming the checkpoint key.
"""

from __future__ import annotations

import contextvars
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from typing import Callable, Optional, TypeVar

from repro.errors import StageFailedError, StageTimeoutError
from repro.obs import Tracer
from repro.resilience.faults import FaultInjector
from repro.resilience.ledger import (
    ERROR,
    FAILED,
    OK,
    TIMEOUT,
    RunLedger,
    stage_attempts,
)
from repro.resilience.policy import ResilienceConfig

log = logging.getLogger(__name__)

T = TypeVar("T")

#: Stride between retry seeds; a prime far from typical user seeds so
#: perturbed attempts never collide with another circuit's base seed.
SEED_STRIDE = 7919


def perturbed_seed(seed: int, attempt: int) -> int:
    """Seed for the given 1-based attempt; attempt 1 is unperturbed."""
    return seed + SEED_STRIDE * (attempt - 1)


class StageRunner:
    """Executes stages under policies as ``kind="stage"`` spans.

    A runner built without a (real) tracer records into its own.
    """

    def __init__(
        self,
        config: Optional[ResilienceConfig] = None,
        faults: Optional[FaultInjector] = None,
        tracer=None,
        checkpoint=None,
    ):
        self.config = config or ResilienceConfig()
        self.faults = faults
        self.tracer = tracer if tracer is not None and tracer.enabled else Tracer()
        # A reused tracer holds earlier runs' spans; the ledger is ours.
        self._first_span = len(self.tracer.spans)
        self.checkpoint = checkpoint  # bound CheckpointManager or None
        self.scope = ""  # e.g. "iteration 2"; used by ledger and spans

    @property
    def ledger(self) -> RunLedger:
        """The ledger of every stage this runner has finished."""
        return RunLedger.from_spans(self.tracer.spans[self._first_span :])

    def note(self, message: str) -> None:
        """Record a ``note`` event on the open span (or a ``note`` span)."""
        prefix = f"{self.scope} · " if self.scope else ""
        span = self.tracer.current
        if span.span_id:
            span.event("note", message=prefix + message)
        else:
            with self.tracer.span("note") as span:
                span.event("note", message=prefix + message)

    def run(self, stage: str, fn: Callable[[int], T]) -> T:
        """Run ``stage`` to completion or exhaustion.

        ``fn`` gets ``policy.max_attempts`` tries, each passed its
        1-based attempt index.

        When a checkpoint manager is attached, a valid snapshot for
        this stage request is restored instead of executing anything,
        and a fresh success is committed to the store.
        """
        ckpt_key: Optional[str] = None
        if self.checkpoint is not None:
            ckpt_key = self.checkpoint.key(self.scope, stage)
            hit, value, _meta = self.checkpoint.restore(ckpt_key)
            if hit:
                return self._restored(stage, ckpt_key, value)
        policy = self.config.policy_for(stage)
        last_exc: Optional[BaseException] = None
        with self.tracer.span(stage, kind="stage", scope=self.scope) as span:
            for attempt in range(1, policy.max_attempts + 1):
                start = time.perf_counter()
                try:
                    result = self._call(stage, fn, attempt, policy.timeout)
                except BaseException as exc:
                    timed_out = isinstance(exc, StageTimeoutError)
                    status = TIMEOUT if timed_out else ERROR
                    _attempt(span, attempt, status, start, exc)
                    if not (timed_out or isinstance(exc, policy.retry_on)):
                        # Not retryable: close the stage span as
                        # failed and let it propagate untouched.
                        span.set(status=FAILED, attempts=attempt)
                        raise
                    log.warning(
                        "stage %s: attempt %d %s, retrying",
                        stage,
                        attempt,
                        f"timed out after {policy.timeout:.1f}s"
                        if timed_out
                        else f"failed ({type(exc).__name__}: {exc})",
                    )
                    last_exc = exc
                    continue
                seconds = _attempt(span, attempt, OK, start)
                span.set(status=OK, attempts=attempt)
                log.debug(
                    "stage %s: ok in %.3fs (%d attempt(s))", stage, seconds, attempt
                )
                if self.checkpoint is not None and ckpt_key is not None:
                    self.checkpoint.commit(ckpt_key, result)
                return result
            span.set(status=FAILED, attempts=policy.max_attempts)
            log.error(
                "stage %s: exhausted after %d attempts", stage, policy.max_attempts
            )
        raise StageFailedError(stage, stage_attempts(span)) from last_exc

    def _restored(self, stage: str, key: str, value: T) -> T:
        """Account for a stage satisfied from the checkpoint store."""
        with self.tracer.span(stage, kind="stage", scope=self.scope) as span:
            span.set(status=OK, resumed=True)
            span.event("resumed_from", checkpoint=key)
            span.event("attempt", variant="resumed", index=1, status=OK, seconds=0.0)
        log.info("stage %s: restored from checkpoint %s", stage, key)
        return value

    def _call(
        self,
        stage: str,
        fn: Callable[[int], T],
        attempt: int,
        timeout: Optional[float],
    ) -> T:
        def thunk() -> T:
            if self.faults is not None:
                self.faults.on_call(stage)
            return fn(attempt)

        if timeout is None:
            return thunk()
        executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"stage-{stage}"
        )
        try:
            # Copy the context so spans opened inside the worker nest
            # under the stage span (contextvars do not cross threads).
            future = executor.submit(contextvars.copy_context().run, thunk)
            try:
                return future.result(timeout=timeout)
            except _FuturesTimeout:
                raise StageTimeoutError(stage, timeout) from None
        finally:
            # Never block on an overrunning worker; it is abandoned.
            executor.shutdown(wait=False)


def _attempt(
    span,
    index: int,
    status: str,
    start: float,
    exc: Optional[BaseException] = None,
) -> float:
    """Record one try as an ``attempt`` event; returns its seconds."""
    seconds = time.perf_counter() - start
    attrs = dict(variant="primary", index=index, status=status, seconds=seconds)
    if exc is not None:
        attrs["error"] = f"{type(exc).__name__}: {exc}"
    span.event("attempt", **attrs)
    return seconds
