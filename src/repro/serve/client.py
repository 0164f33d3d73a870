"""Stdlib HTTP client for the planning service.

Used by the ``repro submit`` / ``repro jobs`` CLI subcommands and the
test-suite; speaks the same two transports the daemon binds — TCP and
Unix domain sockets — through :class:`http.client` so the service has
zero dependencies on either side.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ServeError


class _UnixHTTPConnection(http.client.HTTPConnection):
    """``http.client`` over an ``AF_UNIX`` socket path."""

    def __init__(self, socket_path: str, timeout: float = 10.0):
        super().__init__("localhost", timeout=timeout)
        self.socket_path = socket_path

    def connect(self):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        sock.connect(self.socket_path)
        self.sock = sock


class ServeClient:
    """Thin, connection-per-request client for ``repro serve``.

    Exactly one of ``socket_path`` or ``port`` must be given, matching
    the daemon's ``--socket`` / ``--port``.
    """

    def __init__(
        self,
        socket_path: Optional[str] = None,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        timeout: float = 10.0,
    ):
        if bool(socket_path) == bool(port):
            raise ServeError("ServeClient needs exactly one of socket_path or port")
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.timeout = timeout

    def _connection(self) -> http.client.HTTPConnection:
        if self.socket_path:
            return _UnixHTTPConnection(self.socket_path, timeout=self.timeout)
        return http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)

    def request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
    ) -> Tuple[int, Any]:
        """One request; returns ``(status, parsed-JSON-or-text)``."""
        conn = self._connection()
        try:
            payload = None
            headers = {}
            if body is not None:
                payload = json.dumps(body).encode("utf-8")
                headers["Content-Type"] = "application/json"
            try:
                conn.request(method, path, body=payload, headers=headers)
                resp = conn.getresponse()
                raw = resp.read()
            except (OSError, http.client.HTTPException) as exc:
                raise ServeError(
                    f"cannot reach service at "
                    f"{self.socket_path or f'{self.host}:{self.port}'}: {exc}"
                ) from exc
            text = raw.decode("utf-8", errors="replace")
            if resp.getheader("Content-Type", "").startswith("application/json"):
                try:
                    return resp.status, json.loads(text)
                except json.JSONDecodeError:
                    pass
            return resp.status, text
        finally:
            conn.close()

    # -- endpoint wrappers ---------------------------------------------
    def health(self) -> Dict[str, Any]:
        status, doc = self.request("GET", "/healthz")
        if status != 200:
            raise ServeError(f"healthz returned {status}: {doc}")
        return doc

    def ready(self) -> bool:
        status, _doc = self.request("GET", "/readyz")
        return status == 200

    def submit(
        self,
        circuit: str,
        options: Optional[Dict[str, Any]] = None,
        deadline: Optional[float] = None,
    ) -> Tuple[int, Any]:
        """Submit one job. Returns the raw ``(status, body)`` so the
        caller can distinguish 201 (spooled) / 429 (shed) / 503
        (draining) — the CLI maps these to its exit-code contract."""
        body: Dict[str, Any] = {"circuit": circuit}
        if options:
            body["options"] = options
        if deadline is not None:
            body["deadline"] = deadline
        return self.request("POST", "/jobs", body=body)

    def jobs(self) -> List[Dict[str, Any]]:
        status, doc = self.request("GET", "/jobs")
        if status != 200:
            raise ServeError(f"jobs returned {status}: {doc}")
        return doc["jobs"]

    def job(self, job_id: str) -> Optional[Dict[str, Any]]:
        status, doc = self.request("GET", f"/jobs/{job_id}")
        if status == 404:
            return None
        if status != 200:
            raise ServeError(f"jobs/{job_id} returned {status}: {doc}")
        return doc

    def cancel(self, job_id: str) -> Tuple[int, Any]:
        return self.request("POST", f"/jobs/{job_id}/cancel")

    def events(self, job_id: str) -> str:
        """The job's ``repro-trace/2`` stream so far (empty when absent)."""
        status, text = self.request("GET", f"/jobs/{job_id}/events")
        if status == 404:
            return ""
        if status != 200:
            raise ServeError(f"events returned {status}: {text}")
        return text if isinstance(text, str) else json.dumps(text)

    def metrics(self, job_id: str) -> str:
        """The job's metrics as Prometheus text (empty when absent)."""
        status, text = self.request("GET", f"/jobs/{job_id}/metrics")
        if status == 404:
            return ""
        if status != 200:
            raise ServeError(f"metrics returned {status}: {text}")
        return text if isinstance(text, str) else json.dumps(text)

    def wait(
        self,
        job_id: str,
        timeout: float = 120.0,
        poll: float = 0.2,
    ) -> Dict[str, Any]:
        """Block until the job reaches a terminal state.

        Raises:
            ServeError: Unknown job, or ``timeout`` elapsed first.
        """
        from repro.serve.wire import TERMINAL_STATES

        deadline = time.monotonic() + timeout
        while True:
            doc = self.job(job_id)
            if doc is None:
                raise ServeError(f"no job {job_id}")
            if doc.get("state") in TERMINAL_STATES:
                return doc
            if time.monotonic() >= deadline:
                raise ServeError(
                    f"job {job_id} still {doc.get('state')!r} "
                    f"after {timeout:g}s"
                )
            time.sleep(poll)
