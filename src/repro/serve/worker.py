"""Service worker: one forked process, one job attempt.

Each claimed job forks from the worker template
(:class:`~repro.serve.supervisor.WorkerTemplate`): one single-threaded
process that imported :data:`PRELOAD`, the whole job path, once. An
attempt therefore pays only its own planning, never the interpreter
start-up and imports. The forked child runs :func:`job_main`, which:

1. starts its own session and sends stdout/stderr to
   ``events/<id>.log``;
2. loads the ``running/<id>.json`` record and arms the ``worker_crash``
   fault the supervisor passed in, if any;
3. heartbeats by touching ``running/<id>.hb`` from a daemon thread, so
   the supervisor can tell a hung worker from a slow one;
4. runs the plan with the job's own checkpoint directory
   (``checkpoints/<id>/``, always ``resume=True`` — the first attempt
   finds it empty, a retry finds the previous attempt's committed
   stages and resumes bit-identically), the spool's shared compile
   cache (``compile-cache/``, so a circuit compiled by any earlier job
   replays its min-period work) and per-job telemetry files under
   ``events/`` (``repro-trace/1``, ``repro-metrics/1`` and the live
   ``repro-events/1`` stream the server exposes);
5. atomically writes its result document to ``running/<id>.out`` and
   exits with the same per-plan code the one-shot ``plan`` CLI uses.

The worker never touches the record's state — classification of its
death (clean result, flow error, crash, interrupt) is entirely the
supervisor's job, from the exit code and the presence of the result
file. SIGTERM lands in :func:`install_interrupt_handlers`, so a
drained worker flushes checkpoints and exits 4 (resumable); SIGKILL
(or the injected ``worker_crash``) leaves only the durable checkpoints
behind, which is all a retry needs.
"""

from __future__ import annotations

import json
import logging
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, Optional

from repro.cliutil import (
    EXIT_ERROR,
    EXIT_INFEASIBLE,
    EXIT_INTERRUPTED,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    install_interrupt_handlers,
)
from repro.errors import InterruptedRunError, ReproError, ServeError
from repro.ioutil import atomic_write

log = logging.getLogger(__name__)

#: Seconds between heartbeat touches.
HEARTBEAT_INTERVAL = 0.5

#: Modules the worker template imports once, so that no job imports
#: anything: the job entry, the planner, the certifier a ``verify`` job
#: runs, and the modules the flow loads lazily (the HiGHS binding
#: behind the incremental min-area solve, scipy's spatial and optimize
#: packages, decimal).
PRELOAD = (
    "repro.serve.worker",
    "repro.core",
    "repro.experiments.circuits",
    "repro.resilience",
    "repro.verify",
    "scipy.optimize._highspy._core",
    "scipy.spatial",
    "scipy.optimize",
    "decimal",
)


def _heartbeat(path: Path, stop: threading.Event) -> None:
    template = os.getppid()
    while not stop.wait(HEARTBEAT_INTERVAL):
        if os.getppid() != template:
            # The template died under us and nothing will report our
            # exit: stop now, so the supervisor's retry runs alone.
            os._exit(EXIT_ERROR)
        try:
            path.touch()
        except OSError:
            return


def outcome_result(outcome, seconds: float) -> Dict[str, Any]:
    """The job's result document (the Table-1 claims + verdicts).

    ``t_clk``/``n_foa``/``n_f`` are the bit-identity fields the
    crash-recovery contract is stated over: a requeued, resumed job
    must reproduce them exactly.
    """
    first = outcome.first
    lac = first.lac
    ma = first.min_area
    verification = getattr(outcome, "verification", None)
    return {
        "circuit": outcome.circuit,
        "converged": outcome.converged,
        "degraded": outcome.degraded,
        "infeasible": outcome.final.infeasible,
        "iterations": len(outcome.iterations),
        "t_clk": first.t_clk,
        "t_init": first.t_init,
        "t_min": first.t_min,
        "n_foa": lac.report.n_foa if lac else None,
        "n_f": lac.report.n_f if lac else None,
        "n_fn": lac.report.n_fn if lac else None,
        "n_wr": lac.n_wr if lac else None,
        "ma_n_foa": ma.report.n_foa if ma else None,
        "ma_n_f": ma.report.n_f if ma else None,
        "verified": None if verification is None else bool(verification.ok),
        "seconds": round(seconds, 6),
    }


def outcome_exit_code(outcome) -> int:
    """Map an outcome to the ``plan`` CLI exit-code contract."""
    verification = getattr(outcome, "verification", None)
    if verification is not None and not verification.ok:
        return EXIT_VERIFY_FAILED
    if outcome.converged:
        return EXIT_OK
    if outcome.final.infeasible:
        return EXIT_INFEASIBLE
    return EXIT_NOT_CONVERGED


def job_main(spool: str, job_id: str, fault=None) -> None:
    """Entry point of a job attempt forked from the worker template.

    ``fault`` is the :class:`~repro.resilience.faults.ServeFault` the
    supervisor fired for this spawn, or ``None``. Exits with the code
    :func:`run_job` returns.
    """
    # Its own session, as a spawned worker had: a signal meant for the
    # daemon's process group never reaches a running job.
    os.setsid()
    log_fd = os.open(
        Path(spool) / "events" / f"{job_id}.log",
        os.O_WRONLY | os.O_CREAT | os.O_APPEND,
        0o644,
    )
    os.dup2(log_fd, sys.stdout.fileno())
    os.dup2(log_fd, sys.stderr.fileno())
    os.close(log_fd)
    sys.exit(run_job(Path(spool), job_id, fault))


def run_job(spool: Path, job_id: str, fault=None) -> int:
    """Execute one claimed job; returns the worker's exit code."""
    from repro.resilience.faults import FaultInjector
    from repro.serve.queue import JobQueue
    from repro.serve.wire import JobRecord

    queue = JobQueue(spool, capacity=1)  # path helpers only; no submits
    record_path = queue.path_for("running", job_id)
    try:
        record = JobRecord.from_json(record_path.read_text(encoding="utf-8"))
    except (OSError, ServeError) as exc:
        print(f"error: cannot load job {job_id}: {exc}", file=sys.stderr)
        return EXIT_ERROR

    install_interrupt_handlers()
    faults = None
    if fault is not None:
        log.warning("armed injected fault: %r", fault)
        faults = FaultInjector([fault.as_spec()])
    stop = threading.Event()
    hb = threading.Thread(
        target=_heartbeat,
        args=(queue.heartbeat_path(job_id), stop),
        name="repro-serve-heartbeat",
        daemon=True,
    )
    hb.start()
    try:
        return _plan_job(queue, record, faults)
    finally:
        stop.set()
        hb.join(timeout=2.0)


def _plan_job(queue, record, faults) -> int:
    from repro.compile import CompileCache
    from repro.core import RunContext, plan_interconnect
    from repro.experiments.circuits import load_circuit
    from repro.resilience import CheckpointManager

    try:
        graph, overrides = load_circuit(record.circuit)
    except KeyError as exc:
        _write_out(queue, record.id, {"error": str(exc.args[0])})
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_ERROR

    options = record.options or {}
    iterations = int(options.get("iterations", 2))
    if options.get("quick"):
        overrides["floorplan_iterations"] = 300
        iterations = 1
    ctx = RunContext(
        compile_cache=CompileCache(queue.compile_cache_dir()),
        faults=faults,
        checkpoint=CheckpointManager(queue.checkpoint_dir(record.id), resume=True),
        trace_path=str(queue.trace_path(record.id)),
        metrics_path=str(queue.metrics_path(record.id)),
        progress_path=str(queue.events_path(record.id)),
    )
    t0 = time.perf_counter()
    try:
        outcome = plan_interconnect(
            graph,
            ctx=ctx,
            max_iterations=iterations,
            verify=bool(options.get("verify")),
            **overrides,
        )
    except InterruptedRunError as exc:
        log.info("job %s interrupted (%s); checkpoints are durable", record.id, exc)
        return EXIT_INTERRUPTED
    except ReproError as exc:
        _write_out(queue, record.id, {"error": f"{type(exc).__name__}: {exc}"})
        print(f"error: job {record.id} failed: {exc}", file=sys.stderr)
        return EXIT_ERROR
    result = outcome_result(outcome, time.perf_counter() - t0)
    _write_out(queue, record.id, result)
    return outcome_exit_code(outcome)


def _write_out(queue, job_id: str, doc: Dict[str, Any]) -> None:
    atomic_write(queue.out_path(job_id), json.dumps(doc, sort_keys=True) + "\n")
