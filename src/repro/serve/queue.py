"""Bounded, crash-surviving job spool for the planning service.

Layout (one directory per coarse state; *the directory a record lives
in is the authoritative state*, the embedded ``state`` field is a
convenience that recovery rewrites)::

    <spool>/
        queued/   j00000001-<rand>.json      # FIFO by filename
        running/  j00000002-<rand>.json      # + .hb heartbeat, .out result
        done/     ...
        failed/   ...                        # includes canceled jobs
        quarantine/                          # corrupt records, kept
        events/   <id>.trace.jsonl           # per-job repro-trace/2 stream
        checkpoints/<id>/                    # per-job repro-ckpt/1 store
        compile-cache/                       # repro-compile/3 store, shared

Every transition is an ``os.replace`` between sibling directories plus
an atomic rewrite of the record, so a kill at any instant leaves each
job in exactly one well-defined state: a record still in ``running/``
when the daemon restarts is, by construction, a job whose daemon died
under it — :meth:`JobQueue.recover` moves it back to ``queued/`` (with
its claim attempt refunded) and the next worker resumes it from its
checkpoint directory.

The queue is *bounded*: :meth:`JobQueue.submit` raises
:class:`~repro.errors.QueueFullError` once ``capacity`` jobs are
queued — the server maps that to HTTP 429 and sheds the load instead
of growing without bound.

Corrupt records (truncated writes, hand-edited files, the armed
``queue_corrupt`` fault) are quarantined on first read and never acted
on, mirroring the checkpoint and compile-cache stores.

Concurrency: one daemon process owns the spool; within it, submissions
arrive on HTTP handler threads while the supervisor claims on the main
thread, so every mutating method holds one lock.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.errors import QueueFullError, ServeError
from repro.ioutil import atomic_write, quarantine
from repro.serve.wire import JobRecord, new_job_id, normalize_options

log = logging.getLogger(__name__)

#: Coarse states that map to spool subdirectories.
STATE_DIRS = ("queued", "running", "done", "failed")


class JobQueue:
    """The persistent job store; all state transitions go through here."""

    def __init__(
        self,
        root: Union[str, Path],
        capacity: int = 64,
        faults=None,
    ):
        if capacity < 1:
            raise ServeError(f"queue capacity must be >= 1, got {capacity}")
        self.root = Path(root)
        self.capacity = capacity
        self.faults = faults
        self._lock = threading.Lock()
        try:
            for sub in STATE_DIRS + ("quarantine", "events", "checkpoints"):
                (self.root / sub).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ServeError(f"cannot create spool at {self.root}: {exc}") from exc
        self._seq = self._scan_seq()

    # -- paths ---------------------------------------------------------
    def path_for(self, state_dir: str, job_id: str) -> Path:
        return self.root / state_dir / f"{job_id}.json"

    def heartbeat_path(self, job_id: str) -> Path:
        return self.root / "running" / f"{job_id}.hb"

    def out_path(self, job_id: str) -> Path:
        """Where the worker leaves its result document."""
        return self.root / "running" / f"{job_id}.out"

    def trace_path(self, job_id: str) -> Path:
        """The job's one telemetry file, its ``repro-trace/2`` stream."""
        return self.root / "events" / f"{job_id}.trace.jsonl"

    def checkpoint_dir(self, job_id: str) -> Path:
        return self.root / "checkpoints" / job_id

    def compile_cache_dir(self) -> Path:
        """The compiled-circuit store every job of this spool shares."""
        return self.root / "compile-cache"

    # -- internals -----------------------------------------------------
    def _scan_seq(self) -> int:
        from repro.serve.wire import job_seq

        best = 0
        for sub in STATE_DIRS + ("quarantine",):
            for path in (self.root / sub).glob("j*.json"):
                best = max(best, job_seq(path.stem))
        return best

    def _read(self, path: Path) -> Optional[JobRecord]:
        """Load one record; quarantine and report None when corrupt."""
        try:
            return JobRecord.from_json(path.read_text(encoding="utf-8"))
        except OSError as exc:
            reason = f"unreadable ({exc})"
        except ServeError as exc:
            reason = str(exc)
        log.warning("job record %s quarantined: %s", path, reason)
        quarantine(path, self.root / "quarantine")
        return None

    def _write(self, state_dir: str, record: JobRecord) -> Path:
        path = self.path_for(state_dir, record.id)
        atomic_write(path, record.to_json() + "\n")
        return path

    def _move(self, record: JobRecord, src: str, dst: str, state: str) -> None:
        """Transition ``record`` between spool dirs, rewrite its body."""
        record.state = state
        record.touch()
        src_path = self.path_for(src, record.id)
        dst_path = self.path_for(dst, record.id)
        try:
            os.replace(src_path, dst_path)
        except FileNotFoundError:
            pass  # recovery path: the source side was already consumed
        self._write(dst, record)

    # -- submission ----------------------------------------------------
    def submit(
        self,
        circuit: str,
        options: Optional[Dict[str, Any]] = None,
        max_attempts: int = 2,
        deadline: Optional[float] = None,
    ) -> JobRecord:
        """Spool a new job, FIFO-ordered behind everything queued.

        Raises:
            QueueFullError: ``capacity`` jobs are already queued — the
                caller must shed the submission, never buffer it.
            ServeError: The options are malformed.
        """
        opts = normalize_options(options)
        with self._lock:
            if self.queued_count() >= self.capacity:
                raise QueueFullError(self.capacity)
            self._seq += 1
            now = time.time()
            record = JobRecord(
                id=new_job_id(self._seq),
                circuit=circuit,
                options=opts,
                state="queued",
                created=now,
                updated=now,
                max_attempts=max_attempts,
                deadline=deadline,
            )
            path = self._write("queued", record)
        log.info("job %s queued (circuit %s)", record.id, circuit)
        if self.faults is not None:
            self.faults.on_spool(record.id, path)
        return record

    # -- claiming ------------------------------------------------------
    def claim(self, now: Optional[float] = None) -> Optional[JobRecord]:
        """Move the oldest eligible queued job to ``running``.

        Jobs whose ``not_before`` backoff has not elapsed are skipped
        (they keep their FIFO slot for the next pass). Returns ``None``
        when nothing is runnable.
        """
        now = time.time() if now is None else now
        with self._lock:
            for path in sorted((self.root / "queued").glob("j*.json")):
                record = self._read(path)
                if record is None:
                    continue
                if record.not_before is not None and now < record.not_before:
                    continue
                record.attempts += 1
                record.not_before = None
                self._move(record, "queued", "running", "running")
                log.info(
                    "job %s claimed (attempt %d/%d)",
                    record.id,
                    record.attempts,
                    record.max_attempts,
                )
                return record
        return None

    # -- transitions out of running ------------------------------------
    def update(self, record: JobRecord) -> None:
        """Rewrite a running record in place (worker pid, progress...)."""
        with self._lock:
            record.touch()
            self._write("running", record)

    def finish(
        self,
        record: JobRecord,
        state: str,
        result: Optional[Dict[str, Any]] = None,
        error: Optional[str] = None,
        exit_code: Optional[int] = None,
    ) -> None:
        """Move a running job to its terminal state (+ cleanup)."""
        if state not in ("done", "failed", "canceled"):
            raise ServeError(f"finish() cannot target state {state!r}")
        with self._lock:
            record.result = result
            record.error = error
            record.exit_code = exit_code
            record.worker = None
            dst = "failed" if state == "canceled" else state
            self._move(record, "running", dst, state)
            self._clean_running_side(record.id)
        log.info("job %s -> %s%s", record.id, state, f" ({error})" if error else "")

    def requeue(
        self,
        record: JobRecord,
        error: Optional[str] = None,
        backoff: float = 0.0,
        refund_attempt: bool = False,
    ) -> None:
        """Put a running job back on the queue (crash/deadline/drain).

        ``refund_attempt`` undoes the claim's attempt count for
        interruptions that are not the job's failure (daemon restart,
        graceful drain), so a job can survive any number of restarts.
        """
        with self._lock:
            if refund_attempt and record.attempts > 0:
                record.attempts -= 1
            record.error = error
            record.worker = None
            record.not_before = time.time() + backoff if backoff > 0 else None
            self._move(record, "running", "queued", "queued")
            self._clean_running_side(record.id)
        log.info(
            "job %s requeued (%s; attempt %d/%d)",
            record.id,
            error or "interrupted",
            record.attempts,
            record.max_attempts,
        )

    def cancel_queued(self, job_id: str) -> Optional[JobRecord]:
        """Cancel a still-queued job; running jobs go through the supervisor."""
        with self._lock:
            path = self.path_for("queued", job_id)
            if not path.exists():
                return None
            record = self._read(path)
            if record is None:
                return None
            record.error = "canceled"
            self._move(record, "queued", "failed", "canceled")
            return record

    def _clean_running_side(self, job_id: str) -> None:
        for side in (self.heartbeat_path(job_id), self.out_path(job_id)):
            try:
                side.unlink(missing_ok=True)
            except OSError:
                pass

    # -- restart recovery ----------------------------------------------
    def recover(self) -> List[str]:
        """Requeue every job a dead daemon left in ``running/``.

        Also sweeps corrupt records out of ``queued/`` (quarantined on
        read) and deletes orphaned heartbeat/result side files. Returns
        the requeued job ids.
        """
        requeued: List[str] = []
        for path in sorted((self.root / "running").glob("j*.json")):
            record = self._read(path)
            if record is None:
                continue
            self.requeue(
                record,
                error="daemon restarted while job was running",
                refund_attempt=True,
            )
            requeued.append(record.id)
        for stray in (self.root / "running").glob("j*"):
            if stray.suffix in (".hb", ".out"):
                stray.unlink(missing_ok=True)
        # Touching every queued record validates it (corrupt ones are
        # quarantined here, not at claim time in the serving loop).
        for path in sorted((self.root / "queued").glob("j*.json")):
            self._read(path)
        if requeued:
            log.info("recovered %d interrupted job(s): %s", len(requeued), requeued)
        return requeued

    # -- introspection -------------------------------------------------
    def queued_count(self) -> int:
        return sum(1 for _ in (self.root / "queued").glob("j*.json"))

    def get(self, job_id: str) -> Optional[JobRecord]:
        for sub in STATE_DIRS:
            path = self.path_for(sub, job_id)
            if path.exists():
                return self._read(path)
        return None

    def list_jobs(self) -> List[JobRecord]:
        """Every job in the spool, submission-ordered."""
        records: List[JobRecord] = []
        for sub in STATE_DIRS:
            for path in (self.root / sub).glob("j*.json"):
                record = self._read(path)
                if record is not None:
                    records.append(record)
        return sorted(records, key=lambda r: r.id)

    def counts(self) -> Dict[str, int]:
        out = {
            sub: sum(1 for _ in (self.root / sub).glob("j*.json"))
            for sub in STATE_DIRS
        }
        out["quarantined"] = sum(
            1 for _ in (self.root / "quarantine").glob("j*.json")
        )
        return out
