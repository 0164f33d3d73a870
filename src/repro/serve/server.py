"""The planning-service daemon: HTTP front + supervision loop.

``python -m repro serve`` builds three pieces and runs them until told
to stop:

* a :class:`~repro.serve.queue.JobQueue` on the spool directory
  (recovering any jobs a previous daemon left running);
* a :class:`~repro.serve.supervisor.Supervisor` ticking on the main
  thread;
* a threaded HTTP server — TCP (``--port``) or a Unix domain socket
  (``--socket``) — serving:

  ==============================  ======================================
  endpoint                        meaning
  ==============================  ======================================
  ``GET /healthz``                liveness + queue/worker counters
  ``GET /readyz``                 200 only while accepting submissions
  ``POST /jobs``                  submit; 201 / 400 / 429 (shed) / 503
  ``GET /jobs``                   list every job in the spool
  ``GET /jobs/<id>``              one job's full ``repro-job/1`` record
  ``POST /jobs/<id>/cancel``      cancel queued or running
  ``GET /jobs/<id>/events``       the job's ``repro-trace/2`` stream
                                  as written (``?follow=1`` tails it)
  ``GET /jobs/<id>/trace``        its closed spans as ``repro-trace/1``
  ``GET /jobs/<id>/metrics``      its metrics as Prometheus text,
                                  replayed from the stream
  ==============================  ======================================

All three read the job's one telemetry file,
:meth:`~repro.serve.queue.JobQueue.trace_path`.

Shutdown contract:

* **SIGTERM** (or a first SIGINT) starts a *graceful drain*: readyz
  flips to 503, submissions are refused, no new jobs are claimed, and
  running workers get ``--drain-grace`` seconds to finish. Workers
  still alive after the grace are SIGTERMed — they checkpoint and exit
  4, and their jobs are requeued with the attempt refunded. The daemon
  then exits 0 with an empty ``running/`` spool: everything is either
  terminal or queued for the next daemon.
* **SIGINT × 2** aborts hard: workers are SIGKILLed, their jobs
  requeued (checkpoints make them resumable), exit code 4.

Either way the daemon stops and reaps the worker template on its way
out, so no process it started outlives it.
"""

from __future__ import annotations

import json
import logging
import os
import signal
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.cliutil import EXIT_ERROR, EXIT_INTERRUPTED, EXIT_OK
from repro.errors import QueueFullError, ServeError
from repro.obs import prometheus_lines, read_trace, replay_metrics, trace_lines
from repro.serve.queue import JobQueue
from repro.serve.supervisor import Supervisor

log = logging.getLogger(__name__)

SERVER_VERSION = "repro-serve/1"

#: Largest request body the server will read.
_MAX_BODY = 1 << 20

#: How long ``?follow=1`` keeps a connection at most (seconds).
_FOLLOW_MAX = 600.0


class ServeState:
    """Everything the HTTP handlers share with the daemon loop."""

    def __init__(
        self,
        queue: JobQueue,
        supervisor: Supervisor,
        max_attempts: int = 2,
        deadline: Optional[float] = None,
    ):
        self.queue = queue
        self.supervisor = supervisor
        self.max_attempts = max_attempts
        self.deadline = deadline
        self.started = time.time()
        self.draining = False
        self._drain_requested = threading.Event()
        self._abort_requested = threading.Event()
        self._lock = threading.Lock()
        self.submitted = 0
        self.shed = 0

    # -- signal plumbing (handlers set events, the loop acts) ----------
    def request_drain(self) -> None:
        self._drain_requested.set()

    def request_abort(self) -> None:
        self._drain_requested.set()
        self._abort_requested.set()

    @property
    def drain_requested(self) -> bool:
        return self._drain_requested.is_set()

    @property
    def abort_requested(self) -> bool:
        return self._abort_requested.is_set()

    @property
    def accepting(self) -> bool:
        return not self.draining and not self.drain_requested

    # -- submissions ---------------------------------------------------
    def submit(self, doc: Dict[str, Any]):
        """Validate and spool one submission document."""
        from repro.experiments.circuits import KNOWN_CIRCUITS

        if not isinstance(doc, dict):
            raise ServeError("submission body must be a JSON object")
        circuit = doc.get("circuit")
        if not isinstance(circuit, str) or circuit not in KNOWN_CIRCUITS:
            raise ServeError(
                f"unknown circuit {circuit!r} "
                f"(expected one of {', '.join(KNOWN_CIRCUITS)})"
            )
        deadline = doc.get("deadline", self.deadline)
        if deadline is not None and (
            not isinstance(deadline, (int, float)) or deadline <= 0
        ):
            raise ServeError(f"deadline must be a positive number, got {deadline!r}")
        record = self.queue.submit(
            circuit,
            options=doc.get("options"),
            max_attempts=int(doc.get("max_attempts", self.max_attempts)),
            deadline=deadline,
        )
        with self._lock:
            self.submitted += 1
        return record

    def count_shed(self) -> None:
        with self._lock:
            self.shed += 1

    def health(self) -> Dict[str, Any]:
        return {
            "ok": True,
            "pid": os.getpid(),
            "uptime": round(time.time() - self.started, 3),
            "accepting": self.accepting,
            "jobs": self.queue.counts(),
            "workers": self.supervisor.stats(),
            "submitted": self.submitted,
            "shed": self.shed,
        }


class _Handler(BaseHTTPRequestHandler):
    """Routes requests against the shared :class:`ServeState`."""

    server_version = SERVER_VERSION
    protocol_version = "HTTP/1.0"  # close-delimited bodies, safe to stream

    @property
    def state(self) -> ServeState:
        return self.server.state  # type: ignore[attr-defined]

    # Route http.server's chatter through logging instead of stderr.
    def log_message(self, fmt, *args):  # noqa: N802 (stdlib name)
        log.debug("http: " + fmt, *args)

    def address_string(self):  # AF_UNIX peers have no address
        try:
            return super().address_string()
        except (IndexError, TypeError):
            return "local"

    # -- helpers -------------------------------------------------------
    def _send_json(
        self, code: int, doc: Dict[str, Any], headers: Tuple[Tuple[str, str], ...] = ()
    ) -> None:
        body = (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        if length > _MAX_BODY:
            raise ServeError(f"request body too large ({length} bytes)")
        if length == 0:
            return {}
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServeError(f"request body is not valid JSON: {exc}") from exc

    # -- GET -----------------------------------------------------------
    def do_GET(self):  # noqa: N802
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if parts == ["healthz"]:
                self._send_json(200, self.state.health())
            elif parts == ["readyz"]:
                if self.state.accepting:
                    self._send_json(200, {"ready": True})
                else:
                    self._send_json(503, {"ready": False, "reason": "draining"})
            elif parts == ["jobs"]:
                self._send_json(
                    200,
                    {"jobs": [r.to_dict() for r in self.state.queue.list_jobs()]},
                )
            elif len(parts) == 2 and parts[0] == "jobs":
                record = self.state.queue.get(parts[1])
                if record is None:
                    self._send_json(404, {"error": f"no job {parts[1]}"})
                else:
                    self._send_json(200, record.to_dict())
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] in (
                "events",
                "metrics",
                "trace",
            ):
                self._telemetry(parts[1], parts[2], url.query)
            else:
                self._send_json(404, {"error": f"no route {url.path}"})
        except BrokenPipeError:
            pass
        except Exception as exc:  # never kill the handler thread
            log.exception("GET %s failed", self.path)
            try:
                self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})
            except Exception:
                pass

    def _telemetry(self, job_id: str, kind: str, query: str) -> None:
        """One view of the job's trace stream: raw, as a trace, as metrics."""
        path = self.state.queue.trace_path(job_id)
        follow = parse_qs(query).get("follow", ["0"])[0] not in ("0", "", "false")
        if kind == "events" and follow:
            self.send_response(200)
            self.send_header("Content-Type", "application/jsonl")
            self.end_headers()
            self._follow(job_id, path)
            return
        if not path.exists():
            self._send_json(404, {"error": f"no {kind} for job {job_id}"})
            return
        if kind == "events":
            body, content_type = path.read_bytes(), "application/jsonl"
        else:
            doc = read_trace(path)
            if kind == "trace":
                lines, content_type = trace_lines(doc), "application/jsonl"
            else:
                lines = prometheus_lines(replay_metrics(doc))
                content_type = "text/plain; version=0.0.4"
            body = "".join(line + "\n" for line in lines).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.end_headers()
        self.wfile.write(body)

    def _follow(self, job_id: str, path: Path) -> None:
        """Tail the stream until the job is terminal and fully sent."""
        offset = 0
        last_read = False
        deadline = time.time() + _FOLLOW_MAX
        while time.time() < deadline:
            if path.exists():
                with open(path, "rb") as fh:
                    fh.seek(offset)
                    chunk = fh.read()
                if chunk:
                    self.wfile.write(chunk)
                    self.wfile.flush()
                    offset += len(chunk)
                    continue
            if last_read:
                break
            record = self.state.queue.get(job_id)
            if record is None or record.terminal:
                # The worker may have written more between the empty
                # read above and the state change: read once more.
                last_read = True
                continue
            time.sleep(0.1)

    # -- POST ----------------------------------------------------------
    def do_POST(self):  # noqa: N802
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if parts == ["jobs"]:
                self._submit()
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel":
                self._cancel(parts[1])
            else:
                self._send_json(404, {"error": f"no route {url.path}"})
        except BrokenPipeError:
            pass
        except ServeError as exc:
            self._send_json(400, {"error": str(exc)})
        except Exception as exc:
            log.exception("POST %s failed", self.path)
            try:
                self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})
            except Exception:
                pass

    def _submit(self) -> None:
        if not self.state.accepting:
            self._send_json(
                503,
                {"error": "draining; not accepting jobs"},
                headers=(("Retry-After", "5"),),
            )
            return
        doc = self._read_body()
        try:
            record = self.state.submit(doc)
        except QueueFullError as exc:
            self.state.count_shed()
            self._send_json(
                429, {"error": str(exc)}, headers=(("Retry-After", "1"),)
            )
            return
        self._send_json(201, record.to_dict())

    def _cancel(self, job_id: str) -> None:
        record = self.state.queue.cancel_queued(job_id)
        if record is not None:
            self._send_json(200, {"canceled": "queued", "id": job_id})
            return
        if self.state.supervisor.cancel(job_id):
            self._send_json(200, {"canceled": "running", "id": job_id})
            return
        existing = self.state.queue.get(job_id)
        if existing is None:
            self._send_json(404, {"error": f"no job {job_id}"})
        else:
            self._send_json(
                409, {"error": f"job {job_id} is already {existing.state}"}
            )


class _UnixHTTPServer(ThreadingHTTPServer):
    """HTTP over a Unix domain socket (single-host deployments)."""

    address_family = socket.AF_UNIX

    def server_bind(self):
        path = self.server_address
        if isinstance(path, str) and os.path.exists(path):
            os.unlink(path)  # stale socket from a dead daemon
        self.socket.bind(path)
        self.server_name = "repro-serve"
        self.server_port = 0


def build_http_server(
    state: ServeState,
    socket_path: Optional[str] = None,
    host: str = "127.0.0.1",
    port: int = 0,
):
    """Bind the HTTP front (Unix socket when ``socket_path`` is given)."""
    if socket_path:
        Path(socket_path).parent.mkdir(parents=True, exist_ok=True)
        httpd = _UnixHTTPServer(socket_path, _Handler)
    else:
        httpd = ThreadingHTTPServer((host, port), _Handler)
    httpd.state = state  # type: ignore[attr-defined]
    return httpd


def serve_forever(
    state: ServeState,
    httpd,
    poll_interval: float = 0.05,
    drain_grace: float = 30.0,
    term_grace: float = 10.0,
    max_ticks: Optional[int] = None,
) -> int:
    """The daemon main loop; returns the process exit code.

    ``max_ticks`` bounds the loop for tests; production runs until a
    drain or abort is requested via :class:`ServeState`.
    """
    supervisor = state.supervisor
    http_thread = threading.Thread(
        target=httpd.serve_forever,
        kwargs={"poll_interval": poll_interval},
        name="repro-serve-http",
        daemon=True,
    )
    http_thread.start()
    ticks = 0
    try:
        while not state.drain_requested:
            supervisor.tick()
            ticks += 1
            if max_ticks is not None and ticks >= max_ticks:
                state.request_drain()
                break
            time.sleep(poll_interval)
        return _drain(state, poll_interval, drain_grace, term_grace)
    finally:
        if supervisor.idle:
            # Both drain paths end idle. After a crash of this loop the
            # template exits by itself with the daemon and its workers.
            supervisor.template.stop()
        httpd.shutdown()
        httpd.server_close()
        http_thread.join(timeout=5.0)
        addr = getattr(httpd, "server_address", None)
        if isinstance(addr, str):
            try:
                os.unlink(addr)
            except OSError:
                pass


def _drain(
    state: ServeState,
    poll_interval: float,
    drain_grace: float,
    term_grace: float,
) -> int:
    """Stop accepting, settle running jobs, leave ``running/`` empty."""
    supervisor = state.supervisor
    state.draining = True
    supervisor.accepting_claims = False
    if state.abort_requested:
        aborted = supervisor.abort()
        log.warning("hard abort: requeued %s", aborted or "nothing")
        return EXIT_INTERRUPTED
    log.info(
        "draining: %d running job(s), grace %gs",
        len(supervisor.running),
        drain_grace,
    )
    deadline = time.time() + drain_grace
    while not supervisor.idle and time.time() < deadline:
        if state.abort_requested:
            supervisor.abort()
            return EXIT_INTERRUPTED
        supervisor.tick()
        time.sleep(poll_interval)
    if not supervisor.idle:
        # Grace expired: ask workers to checkpoint and exit (4); their
        # jobs requeue with the attempt refunded.
        supervisor.signal_workers(signal.SIGTERM)
        deadline = time.time() + term_grace
        while not supervisor.idle and time.time() < deadline:
            supervisor.tick()
            time.sleep(poll_interval)
    if not supervisor.idle:
        supervisor.abort()
        return EXIT_INTERRUPTED
    supervisor.tick()  # final reap so terminal states are spooled
    return EXIT_OK


def _option_error(args) -> Optional[str]:
    """Why a ``repro serve`` option is out of range, or ``None``."""
    for flag, value in (
        ("--workers", args.workers),
        ("--queue-limit", args.queue_limit),
        ("--max-attempts", args.max_attempts),
    ):
        if value < 1:
            return f"{flag} must be at least 1, got {value}"
    for flag, value in (
        ("--deadline", args.deadline),
        ("--heartbeat-timeout", args.heartbeat_timeout),
        ("--poll-interval", args.poll_interval),
    ):
        if value is not None and not value > 0:
            return f"{flag} must be positive, got {value:g}"
    if not args.drain_grace >= 0:
        return f"--drain-grace must not be negative, got {args.drain_grace:g}"
    return None


def serve_main(args) -> int:
    """Entry point behind ``python -m repro serve``."""
    from repro.resilience.faults import FaultInjector, ServeFault

    if (args.socket is None) == (args.port is None):
        print("error: serve needs exactly one of --socket or --port", file=sys.stderr)
        return EXIT_ERROR
    error = _option_error(args)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR
    faults = None
    if args.inject_fault:
        faults = FaultInjector()
        for value in args.inject_fault:
            try:
                faults.arm(ServeFault.parse(value))
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_ERROR
    try:
        queue = JobQueue(args.spool, capacity=args.queue_limit, faults=faults)
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    recovered = queue.recover()
    if recovered:
        print(
            f"recovered {len(recovered)} interrupted job(s): "
            + ", ".join(recovered),
            file=sys.stderr,
        )
    from repro.resilience.policy import StagePolicy

    supervisor = Supervisor(
        queue,
        workers=args.workers,
        policy=StagePolicy(max_attempts=args.max_attempts, timeout=args.deadline),
        heartbeat_timeout=args.heartbeat_timeout,
        faults=faults,
    )
    state = ServeState(
        queue,
        supervisor,
        max_attempts=args.max_attempts,
        deadline=args.deadline,
    )
    try:
        httpd = build_http_server(
            state, socket_path=args.socket, host=args.host, port=args.port or 0
        )
    except OSError as exc:
        print(f"error: cannot bind: {exc}", file=sys.stderr)
        return EXIT_ERROR

    def _on_sigterm(signum, frame):
        state.request_drain()

    def _on_sigint(signum, frame):
        if state.drain_requested:
            state.request_abort()
        else:
            state.request_drain()

    signal.signal(signal.SIGTERM, _on_sigterm)
    signal.signal(signal.SIGINT, _on_sigint)

    where = args.socket or f"http://{args.host}:{httpd.server_address[1]}"
    print(
        f"repro-serve: listening on {where}, spool {queue.root}, "
        f"{supervisor.workers} worker(s), queue limit {queue.capacity}",
        file=sys.stderr,
        flush=True,
    )
    rc = serve_forever(
        state,
        httpd,
        poll_interval=args.poll_interval,
        drain_grace=args.drain_grace,
    )
    counts = queue.counts()
    print(
        f"repro-serve: exiting {rc} "
        f"(done {counts['done']}, failed {counts['failed']}, "
        f"queued {counts['queued']}, running {counts['running']})",
        file=sys.stderr,
    )
    return rc
