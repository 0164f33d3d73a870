"""Supervised worker pool: fork, watch, requeue, resume.

The :class:`Supervisor` owns every worker process the service runs.
Each job attempt is its own process, forked from a
:class:`WorkerTemplate` that imported the whole job path once, so an
attempt does not pay a fresh interpreter's start-up and imports. Its :meth:`~Supervisor.tick` is called from the daemon's main
loop and does three things, in order:

1. **reap** — classify every exited worker from its exit code plus the
   presence of the result file, and move the job accordingly:

   ========================  =============================================
   worker exit               job transition
   ========================  =============================================
   0 / 1 / 3 / 5 + result    ``done`` (``exit_code`` keeps the verdict)
   2 (flow error)            ``failed`` — deterministic, retrying is noise
   4 (interrupted)           requeued, attempt refunded (drain/SIGTERM is
                             not the job's failure)
   crash (signal, 137,       requeued with exponential backoff while
   missing result)           attempts remain, else ``failed``
   ========================  =============================================

2. **enforce** — kill workers over their wall-clock deadline and
   workers whose heartbeat went stale (hung, not slow: the heartbeat
   thread touches its file every 0.5 s even while the GIL-holding
   solver grinds); both classify like crashes, so checkpoint-resumed
   retries still apply while attempts remain;

3. **claim** — while slots are free (and draining has not stopped
   claims), pull queued jobs and fork workers.

Retry semantics deliberately reuse :class:`~repro.resilience.policy.
StagePolicy`: ``max_attempts`` bounds claims per job and ``timeout``
is the default per-job deadline, so the service's recovery posture is
expressed in the same vocabulary as the in-process stages. Because
every attempt runs with the job's durable checkpoint directory, a
retry resumes at the last committed stage and the final result is
bit-identical to an undisturbed run — crash recovery never changes
answers, only wall-clock.

A ``worker_crash`` :class:`~repro.resilience.faults.ServeFault` armed
on the injector fires here at spawn time: the chosen worker gets the
fault as an argument and hard-exits mid-plan, which is how CI proves
the requeue-and-resume path with a deterministic kill.
"""

from __future__ import annotations

import dataclasses
import logging
import multiprocessing
import os
import signal
import time
from multiprocessing import forkserver, resource_tracker
from multiprocessing.process import BaseProcess
from typing import Dict, List, Optional

from repro.cliutil import (
    EXIT_ERROR,
    EXIT_INFEASIBLE,
    EXIT_INTERRUPTED,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
)
from repro.resilience.policy import StagePolicy
from repro.serve.queue import JobQueue
from repro.serve.wire import JobRecord
from repro.serve.worker import PRELOAD, job_main

log = logging.getLogger(__name__)

#: Worker exit codes that carry a result document ("the plan ran").
_RESULT_EXITS = (EXIT_OK, EXIT_NOT_CONVERGED, EXIT_INFEASIBLE, EXIT_VERIFY_FAILED)


class WorkerTemplate:
    """The pre-imported process every job attempt forks from.

    A ``multiprocessing`` forkserver preloaded with
    :data:`~repro.serve.worker.PRELOAD`. The daemon cannot be the
    template itself: it runs a threaded HTTP server, and forking a
    threaded process is unsafe. The template starts on the first
    :meth:`start`, not with the daemon; if it dies, the next
    :meth:`start` launches a fresh one. There is one forkserver per
    process, so every template in a process shares it. As with any
    ``multiprocessing`` start method but ``fork``, a script that starts
    workers must guard its entry point with ``if __name__ ==
    "__main__":``, since each forked process re-imports the main script;
    ``python -m repro serve`` needs no guard.
    """

    def __init__(self):
        self._ctx = multiprocessing.get_context("forkserver")
        self._ctx.set_forkserver_preload(list(PRELOAD))

    @property
    def pid(self) -> Optional[int]:
        """The template's pid, or ``None`` before the first start."""
        return forkserver._forkserver._forkserver_pid

    def start(self, target, args=()) -> BaseProcess:
        """Fork one process from the template running ``target(*args)``."""
        before = self.pid
        proc = self._ctx.Process(target=target, args=args)
        proc.start()
        if self.pid != before:
            log.info("worker template pid %d started", self.pid)
        return proc

    def stop(self) -> None:
        """Stop and reap the template and multiprocessing's resource
        tracker, which started with it.

        Call once no forked attempt runs: both wait for the last one to
        exit, since every attempt holds their keep-alive pipes.
        """
        pid = self.pid
        if pid is None:
            return
        forkserver._forkserver._stop()
        resource_tracker._resource_tracker._stop()
        log.info("worker template pid %d stopped", pid)


@dataclasses.dataclass
class WorkerHandle:
    """One live worker process and the job it owns."""

    record: JobRecord
    proc: BaseProcess
    started: float
    deadline: Optional[float]
    canceled: bool = False
    deadline_exceeded: bool = False
    hung: bool = False
    #: Set when the drain path signals this worker: whatever way it
    #: dies, its job requeues with the attempt refunded (a drain kill
    #: is the daemon's doing, not the job's) — this covers workers
    #: SIGTERMed before their interrupt handlers are even installed.
    drained: bool = False


class Supervisor:
    """Process pool tied to a :class:`~repro.serve.queue.JobQueue`."""

    def __init__(
        self,
        queue: JobQueue,
        workers: int = 2,
        policy: Optional[StagePolicy] = None,
        backoff: float = 0.25,
        heartbeat_timeout: float = 30.0,
        faults=None,
    ):
        self.queue = queue
        self.workers = max(1, workers)
        self.policy = policy or StagePolicy(max_attempts=2)
        self.backoff = backoff
        self.heartbeat_timeout = heartbeat_timeout
        self.faults = faults
        self.template = WorkerTemplate()
        self.accepting_claims = True
        self.running: Dict[str, WorkerHandle] = {}
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.crashes_recovered = 0

    # -- main loop -----------------------------------------------------
    def tick(self, now: Optional[float] = None) -> bool:
        """One supervision pass. Returns True when anything happened."""
        now = time.time() if now is None else now
        acted = self._reap()
        acted = self._enforce(now) or acted
        while self.accepting_claims and len(self.running) < self.workers:
            record = self.queue.claim(now)
            if record is None:
                break
            self._spawn(record, now)
            acted = True
        return acted

    @property
    def idle(self) -> bool:
        return not self.running

    # -- spawning ------------------------------------------------------
    def _spawn(self, record: JobRecord, now: float) -> None:
        fault = self.faults.worker_fault() if self.faults is not None else None
        if fault is not None:
            log.warning("job %s: injecting %r into worker", record.id, fault)
        try:
            proc = self.template.start(
                job_main, (str(self.queue.root.resolve()), record.id, fault)
            )
        except (OSError, EOFError) as exc:
            log.error("job %s: cannot start worker: %s", record.id, exc)
            self._retry_or_fail(record, f"worker spawn failed: {exc}")
            return
        self._track(record, proc, now)

    def _track(self, record: JobRecord, proc: BaseProcess, now: float) -> None:
        """Record a started worker on its job and watch it."""
        record.worker = {"pid": proc.pid, "started": now}
        self.queue.update(record)
        deadline = record.deadline
        if deadline is None:
            deadline = self.policy.timeout
        self.running[record.id] = WorkerHandle(
            record=record, proc=proc, started=now, deadline=deadline
        )
        log.info(
            "job %s: worker pid %d started (deadline %s)",
            record.id,
            proc.pid,
            f"{deadline:g}s" if deadline else "none",
        )

    # -- reaping -------------------------------------------------------
    def _reap(self) -> bool:
        acted = False
        for job_id in list(self.running):
            handle = self.running[job_id]
            rc = handle.proc.exitcode
            if rc is None:
                continue
            del self.running[job_id]
            handle.proc.close()
            self._classify(handle, rc)
            acted = True
        return acted

    def _classify(self, handle: WorkerHandle, rc: int) -> None:
        record = handle.record
        out = self._read_out(record.id)
        if handle.canceled:
            self.queue.finish(record, "canceled", error="canceled")
            return
        if handle.deadline_exceeded:
            self._retry_or_fail(
                record, f"deadline exceeded ({handle.deadline:g}s)"
            )
            return
        if handle.hung:
            self._retry_or_fail(
                record,
                f"worker heartbeat stale > {self.heartbeat_timeout:g}s (hung)",
            )
            return
        if rc == EXIT_INTERRUPTED:
            self.queue.requeue(
                record,
                error="worker interrupted (drain/SIGTERM)",
                refund_attempt=True,
            )
            return
        if rc in _RESULT_EXITS and out is not None and "error" not in out:
            self.jobs_completed += 1
            self.queue.finish(record, "done", result=out, exit_code=rc)
            return
        if rc == EXIT_ERROR:
            self.jobs_failed += 1
            error = (out or {}).get("error", "flow error")
            self.queue.finish(record, "failed", error=error, exit_code=rc)
            return
        if handle.drained:
            self.queue.requeue(
                record,
                error="worker stopped during drain",
                refund_attempt=True,
            )
            return
        # Anything else is a crash: a signal death (rc < 0), the
        # injected 137, or a "clean" exit that left no result behind.
        self._retry_or_fail(record, f"worker crashed (exit {rc})")

    def _read_out(self, job_id: str) -> Optional[dict]:
        import json

        path = self.queue.out_path(job_id)
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None

    def _retry_or_fail(self, record: JobRecord, error: str) -> None:
        if record.attempts < record.max_attempts:
            self.crashes_recovered += 1
            backoff = self.backoff * (2 ** max(record.attempts - 1, 0))
            self.queue.requeue(
                record, error=f"{error}; retrying from checkpoint", backoff=backoff
            )
        else:
            self.jobs_failed += 1
            self.queue.finish(
                record,
                "failed",
                error=f"{error} after {record.attempts} attempt(s)",
                exit_code=None,
            )

    # -- deadline / heartbeat enforcement ------------------------------
    def _enforce(self, now: float) -> bool:
        acted = False
        for handle in list(self.running.values()):
            if handle.proc.exitcode is not None:
                continue  # reaped next tick
            if (
                handle.deadline is not None
                and now - handle.started > handle.deadline
            ):
                handle.deadline_exceeded = True
                self._kill(handle)
                acted = True
                continue
            hb = self.queue.heartbeat_path(handle.record.id)
            try:
                stale = now - hb.stat().st_mtime > self.heartbeat_timeout
            except OSError:
                # No heartbeat yet: measure from process start instead.
                stale = now - handle.started > self.heartbeat_timeout
            if stale:
                handle.hung = True
                self._kill(handle)
                acted = True
        return acted

    def _kill(self, handle: WorkerHandle) -> None:
        log.warning(
            "job %s: killing worker pid %d (%s)",
            handle.record.id,
            handle.proc.pid,
            "deadline" if handle.deadline_exceeded else "stale heartbeat",
        )
        handle.proc.kill()

    # -- external control ----------------------------------------------
    def cancel(self, job_id: str) -> bool:
        """Cancel a *running* job (queued ones cancel in the queue)."""
        handle = self.running.get(job_id)
        if handle is None:
            return False
        handle.canceled = True
        handle.proc.kill()
        return True

    def signal_workers(self, sig: int = signal.SIGTERM) -> List[str]:
        """Forward a signal to every live worker (drain grace expiry)."""
        signaled = []
        for handle in self.running.values():
            handle.drained = True
            if handle.proc.exitcode is not None:
                continue
            try:
                os.kill(handle.proc.pid, sig)
                signaled.append(handle.record.id)
            except OSError:
                pass
        return signaled

    def abort(self) -> List[str]:
        """Hard stop: SIGKILL every worker and requeue its job.

        The jobs stay resumable — their checkpoints are durable — so a
        later daemon finishes them with bit-identical results.
        """
        aborted = []
        for job_id in list(self.running):
            handle = self.running.pop(job_id)
            handle.proc.kill()
            handle.proc.join(timeout=5.0)
            self.queue.requeue(
                handle.record, error="daemon aborted", refund_attempt=True
            )
            aborted.append(job_id)
        return aborted

    def stats(self) -> Dict[str, Optional[int]]:
        return {
            "running": len(self.running),
            "completed": self.jobs_completed,
            "failed": self.jobs_failed,
            "crashes_recovered": self.crashes_recovered,
            "template_pid": self.template.pid,
        }
