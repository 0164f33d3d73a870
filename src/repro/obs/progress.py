"""Live progress streaming (``repro-events/1``).

``plan --progress PATH`` attaches a :class:`ProgressStream` to the
run's tracer and writes one JSON object per line *as spans open and
close* — unlike the trace file, which only exists after the run ends.
It is a ``tail -f``-able window into a long run.

Line shapes (every line is one JSON object, flushed immediately):

* header (first line): ``{"schema": "repro-events/1", "meta": {...}}``
* ``{"type": "span_open",  "t": ..., "span_id", "parent_id", "name", "attrs"}``
* ``{"type": "span_close", "t": ..., "span_id", "name", "elapsed", "attrs"}``
* ``{"type": "metrics", "t": ..., "samples": {"name{k=v}": value, ...}}``
  — a registry snapshot, emitted when a *stage* span closes
* ``{"type": "run_end", "t": ..., "spans": N}`` (last line)

``--progress -`` selects the human renderer instead
(:class:`HumanProgress`): the same listener protocol, rendering an
indented open/close line per span to stderr so stdout report output
stays clean.

Both attach through :meth:`Tracer.add_listener`; attach the metrics
registry and the resource monitor *first* so closes observed here
already carry the derived metrics and ``peak_rss_bytes`` stamps.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, IO, List, Optional, Union

from repro.errors import ReproError

EVENTS_SCHEMA = "repro-events/1"

_EVENT_TYPES = ("span_open", "span_close", "metrics", "run_end")

__all__ = [
    "EVENTS_SCHEMA",
    "ProgressStream",
    "HumanProgress",
    "open_progress",
    "read_events",
    "validate_events",
]


def _compact(obj: Any) -> str:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


class ProgressStream:
    """Tracer listener that streams ``repro-events/1`` JSONL.

    Args:
        out: Open text stream to write to. The caller owns streams it
            passes in; streams opened by :func:`open_progress` are
            closed by :meth:`close`.
        meta: Header metadata; when attached via :meth:`attach` the
            tracer's own ``meta`` is merged in (tracer wins).
        close_out: Close ``out`` in :meth:`close`.

    While attached with a ``metrics`` registry, a snapshot event is
    emitted each time a stage span closes.
    """

    def __init__(
        self,
        out: IO[str],
        meta: Optional[Dict[str, Any]] = None,
        close_out: bool = False,
    ):
        self._out = out
        self._meta = dict(meta or {})
        self._metrics = None  # the attached run's registry
        self._close_out = close_out
        self._tracer = None
        self._header_written = False
        self._closed = False
        self.events_emitted = 0

    # ------------------------------------------------------------------
    def attach(self, tracer, metrics=None) -> "ProgressStream":
        """Register on ``tracer``, adopting its meta and, until
        :meth:`detach`, the run's ``metrics`` registry."""
        self._tracer = tracer
        merged = dict(self._meta)
        merged.update(tracer.meta)
        self._meta = merged
        self._metrics = metrics
        tracer.add_listener(self)
        return self

    def detach(self) -> None:
        self._metrics = None
        if self._tracer is not None:
            self._tracer.remove_listener(self)
            self._tracer = None

    def _emit(self, obj: Dict[str, Any]) -> None:
        if self._closed:
            return
        if not self._header_written:
            self._out.write(
                _compact({"schema": EVENTS_SCHEMA, "meta": self._meta}) + "\n"
            )
            self._header_written = True
        self._out.write(_compact(obj) + "\n")
        self._out.flush()
        self.events_emitted += 1

    # -- tracer listener protocol --------------------------------------
    def on_open(self, span) -> None:
        self._emit(
            {
                "type": "span_open",
                "t": round(span.start, 6),
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "name": span.name,
                "attrs": dict(span.attrs),
            }
        )

    def on_close(self, span) -> None:
        self._emit(
            {
                "type": "span_close",
                "t": round(span.end, 6),
                "span_id": span.span_id,
                "name": span.name,
                "elapsed": round(span.end - span.start, 6),
                "attrs": dict(span.attrs),
            }
        )
        if self._metrics is not None and span.attrs.get("kind") == "stage":
            self._emit(
                {
                    "type": "metrics",
                    "t": round(span.end, 6),
                    "samples": self._metrics.snapshot(),
                }
            )

    # ------------------------------------------------------------------
    def close(self, spans: Optional[int] = None) -> None:
        """Emit the terminal ``run_end`` line and release the stream.

        ``spans`` is the recorded span count when the caller knows it
        (one planner run); a batch parent closing a stream shared
        across circuits omits it.
        """
        if self._closed:
            return
        t = self._tracer.now() if self._tracer is not None else 0.0
        end: Dict[str, Any] = {"type": "run_end", "t": round(t, 6)}
        if spans is not None:
            end["spans"] = spans
        self._emit(end)
        self.detach()
        self._closed = True
        if self._close_out:
            self._out.close()


class HumanProgress:
    """TTY renderer for ``--progress -``: one line per span open/close.

    Only spans down to ``max_depth`` are rendered — the solver opens
    thousands of sub-millisecond probe spans that would scroll any
    terminal into uselessness; stages and their immediate children are
    the watchable granularity.
    """

    def __init__(self, out: Optional[IO[str]] = None, max_depth: int = 2):
        self._out = out if out is not None else sys.stderr
        self.max_depth = max_depth
        self._depth: Dict[int, int] = {}
        self.events_emitted = 0
        self._tracer = None

    def attach(self, tracer, metrics=None) -> "HumanProgress":
        self._tracer = tracer
        tracer.add_listener(self)
        return self

    def detach(self) -> None:
        if self._tracer is not None:
            self._tracer.remove_listener(self)
            self._tracer = None

    def _write(self, line: str) -> None:
        self._out.write(line + "\n")
        self._out.flush()
        self.events_emitted += 1

    def on_open(self, span) -> None:
        depth = self._depth.get(span.parent_id, -1) + 1
        self._depth[span.span_id] = depth
        if depth > self.max_depth:
            return
        label = span.name
        scope = span.attrs.get("scope")
        if scope:
            label = f"{label} ({scope})"
        self._write(f"[{span.start:9.3f}s] {'  ' * depth}> {label}")

    def on_close(self, span) -> None:
        depth = self._depth.pop(span.span_id, 0)
        if depth > self.max_depth:
            return
        extra = ""
        rss = span.attrs.get("peak_rss_bytes")
        if rss:
            extra += f"  rss={rss / 1048576.0:.1f}MiB"
        err = span.attrs.get("error")
        if err:
            extra += f"  error={err}"
        self._write(
            f"[{span.end:9.3f}s] {'  ' * depth}< {span.name}"
            f"  {span.end - span.start:.3f}s{extra}"
        )

    def close(self, spans: Optional[int] = None) -> None:
        suffix = f": {spans} spans" if spans is not None else ""
        self._write(f"run complete{suffix}")
        self.detach()


def open_progress(
    spec: str, meta: Optional[Dict[str, Any]] = None
) -> Union[ProgressStream, HumanProgress]:
    """Build the right progress sink for a ``--progress`` argument.

    ``"-"`` selects the human stderr renderer; anything else is a path
    that receives the ``repro-events/1`` JSONL stream.
    """
    if spec == "-":
        return HumanProgress()
    path = Path(spec)
    if path.parent and not path.parent.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
    fh = open(path, "w", encoding="utf-8")
    return ProgressStream(fh, meta=meta, close_out=True)


# ----------------------------------------------------------------------
# Reading / validation


def read_events(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Parse and validate a ``repro-events/1`` file; return its events.

    Raises :class:`~repro.errors.ReproError` with a line-numbered
    message on any structural problem, mirroring
    :func:`~repro.obs.export.read_trace`.
    """
    path = Path(path)
    events: List[Dict[str, Any]] = []
    open_ids: Dict[int, str] = {}
    saw_end = False
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ReproError(f"{path}:{lineno}: invalid JSON: {exc}")
            if lineno == 1:
                schema = obj.get("schema")
                if schema != EVENTS_SCHEMA:
                    raise ReproError(
                        f"{path}:1: expected schema {EVENTS_SCHEMA!r}, "
                        f"got {schema!r}"
                    )
                continue
            etype = obj.get("type")
            if etype not in _EVENT_TYPES:
                raise ReproError(
                    f"{path}:{lineno}: unknown event type {etype!r}"
                )
            if saw_end:
                raise ReproError(
                    f"{path}:{lineno}: event after run_end"
                )
            if "t" not in obj:
                raise ReproError(f"{path}:{lineno}: event missing 't'")
            if etype == "span_open":
                sid = obj.get("span_id")
                if not isinstance(sid, int):
                    raise ReproError(
                        f"{path}:{lineno}: span_open missing span_id"
                    )
                if sid in open_ids:
                    raise ReproError(
                        f"{path}:{lineno}: span {sid} opened twice"
                    )
                open_ids[sid] = obj.get("name", "")
            elif etype == "span_close":
                sid = obj.get("span_id")
                if sid not in open_ids:
                    raise ReproError(
                        f"{path}:{lineno}: close of span {sid} "
                        "that was never opened"
                    )
                del open_ids[sid]
            elif etype == "metrics":
                if not isinstance(obj.get("samples"), dict):
                    raise ReproError(
                        f"{path}:{lineno}: metrics event missing samples"
                    )
            elif etype == "run_end":
                saw_end = True
            events.append(obj)
    if not events and not saw_end:
        raise ReproError(f"{path}: empty events file")
    return events


def validate_events(path: Union[str, Path]) -> int:
    """Validate; return the number of events (excluding the header)."""
    return len(read_events(path))
