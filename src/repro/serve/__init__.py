"""The planning service: a supervised, crash-surviving job daemon.

``python -m repro serve`` turns the one-shot planning CLI into a
long-running service: submissions spool into a bounded on-disk queue
(:mod:`repro.serve.queue`), a supervised process pool runs each job in
its own worker, forked from a pre-imported template, with its own
checkpoint directory and the spool's shared compile cache
(:mod:`repro.serve.supervisor`, :mod:`repro.serve.worker`), and a
small stdlib HTTP front (:mod:`repro.serve.server`) exposes health,
readiness, submission, and per-job telemetry endpoints, each a view
of the job's one ``repro-trace/2`` stream.

The design invariants, stated once:

* **The spool directory is the state machine.** A job's record lives
  in exactly one of ``queued/ running/ done/ failed/``; transitions
  are atomic renames; a kill at any instant leaves a recoverable spool.
* **Workers are disposable.** Any worker death — crash, OOM-like
  ``worker_crash`` injection, SIGKILL, deadline, stale heartbeat —
  requeues the job, and the retry resumes from the job's durable
  checkpoints to a bit-identical result.
* **Backpressure is explicit.** A full queue sheds submissions with
  HTTP 429 (CLI exit 6); memory use is bounded by construction.
"""

from repro.serve.client import ServeClient
from repro.serve.queue import STATE_DIRS, JobQueue
from repro.serve.server import ServeState, build_http_server, serve_forever, serve_main
from repro.serve.supervisor import Supervisor, WorkerTemplate
from repro.serve.wire import (
    JOB_SCHEMA,
    JOB_STATES,
    TERMINAL_STATES,
    JobRecord,
    normalize_options,
)

__all__ = [
    "JOB_SCHEMA",
    "JOB_STATES",
    "STATE_DIRS",
    "TERMINAL_STATES",
    "JobQueue",
    "JobRecord",
    "ServeClient",
    "ServeState",
    "Supervisor",
    "WorkerTemplate",
    "build_http_server",
    "normalize_options",
    "serve_forever",
    "serve_main",
]
