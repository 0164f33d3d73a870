"""The trace file: ``repro-trace/2`` streamed, ``repro-trace/1`` readable.

A run streams its trace (:class:`TraceStream`, a tracer listener) as
line-delimited JSON, one line per span open and close, flushed as it
is written, so the file is the run's live, ``tail -f``-able record and
a killed run leaves everything up to its last span event behind:

* line 1 — the header::

      {"schema": "repro-trace/2", "meta": {...}}

* one ``open`` line per span open, in open order::

      {"type": "open", "id": 3, "parent": 1, "name": "lac/round",
       "start": 0.48, "attrs": {"round": 2}}

* one ``span`` line per span close, in close order (children precede
  their parents, since a span closes after everything nested in it)::

      {"type": "span", "id": 3, "parent": 1, "name": "lac/round",
       "start": 0.48, "end": 0.61, "attrs": {"n_foa": 4, ...},
       "events": [{"name": "checkpoint", "t": 0.5, "attrs": {...}}],
       "counters": {"probes": 12}}

* the footer, written when the run ends::

      {"type": "run_end", "spans": <closed span count>}

``parent`` is ``null`` for root spans; ``attrs``, ``events`` and
``counters`` are omitted when empty. Times are seconds on the tracer's
clock (monotonic, not wall-clock epochs; ``meta.wall_start`` anchors
them).

``repro-trace/1`` is the finished-run form: a header carrying the span
count, then the ``span`` lines alone. :func:`trace_lines` renders it
(the service's ``/jobs/<id>/trace`` endpoint does so from a stream)
and :func:`read_trace` still reads it.

:func:`read_trace` parses and *validates* either schema: a malformed
line, a missing field, a dangling parent reference or ``end < start``
raises :class:`TraceError` naming the offending line. A ``/2`` file
may end early: the document then lists the spans that opened but never
closed in :attr:`TraceDocument.unfinished`. ``python -m repro trace
validate`` exposes the same check on the command line.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.errors import ReproError
from repro.ioutil import atomic_write

TRACE_SCHEMA = "repro-trace/1"
STREAM_SCHEMA = "repro-trace/2"

_REQUIRED_SPAN_KEYS = ("type", "id", "name", "start", "end")
_REQUIRED_OPEN_KEYS = ("id", "name", "start")


class TraceError(ReproError):
    """A trace file failed to parse or validate."""


@dataclasses.dataclass
class SpanRecord:
    """One span as read back from a trace file."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: Optional[float]  # None while the span is unfinished
    attrs: Dict[str, Any] = dataclasses.field(default_factory=dict)
    events: List[Tuple[str, float, Dict[str, Any]]] = dataclasses.field(
        default_factory=list
    )
    counters: Dict[str, int] = dataclasses.field(default_factory=dict)

    @property
    def elapsed(self) -> float:
        return self.end - self.start


@dataclasses.dataclass
class TraceDocument:
    """A parsed trace: header metadata, closed spans, unfinished spans.

    ``spans`` are the closed spans in close order; ``unfinished`` the
    spans a ``repro-trace/2`` stream opened but never closed (a killed
    run), in open order, with ``end`` of ``None``.
    """

    meta: Dict[str, Any]
    spans: List[SpanRecord]
    unfinished: List[SpanRecord] = dataclasses.field(default_factory=list)
    schema: str = TRACE_SCHEMA

    def roots(self) -> List[SpanRecord]:
        return [s for s in self.spans if s.parent_id is None]

    def by_name(self, name: str) -> List[SpanRecord]:
        return [s for s in self.spans if s.name == name]

    def children_of(self, span: SpanRecord) -> List[SpanRecord]:
        return [s for s in self.spans if s.parent_id == span.span_id]


def _json_default(obj: Any) -> Any:
    """Last-resort serialisation: numpy scalars by value, rest by str."""
    item = getattr(obj, "item", None)
    if callable(item):
        try:
            return item()
        except (TypeError, ValueError):
            pass
    if isinstance(obj, (set, frozenset, tuple)):
        return sorted(obj) if isinstance(obj, (set, frozenset)) else list(obj)
    return str(obj)


def _dumps(record: Dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True, default=_json_default)


def _span_payload(span) -> Dict[str, Any]:
    payload: Dict[str, Any] = {
        "type": "span",
        "id": span.span_id,
        "parent": span.parent_id,
        "name": span.name,
        "start": round(span.start, 9),
        "end": round(span.end, 9),
    }
    if span.attrs:
        payload["attrs"] = span.attrs
    if span.events:
        payload["events"] = [
            {"name": n, "t": round(t, 9), "attrs": a} if a else {"name": n, "t": round(t, 9)}
            for n, t, a in span.events
        ]
    if span.counters:
        payload["counters"] = span.counters
    return payload


def trace_lines(source, spans: Optional[Sequence] = None) -> Iterator[str]:
    """Serialise ``spans`` as ``repro-trace/1`` lines.

    ``source`` is a :class:`~repro.obs.Tracer` or a
    :class:`TraceDocument`; it supplies the header ``meta`` and, by
    default, the spans (a document's closed spans).
    """
    spans = source.spans if spans is None else spans
    header = {
        "schema": TRACE_SCHEMA,
        "meta": source.meta,
        "spans": len(spans),
    }
    yield _dumps(header)
    for span in spans:
        yield _dumps(_span_payload(span))


def write_trace(
    tracer, path: Union[str, Path], spans: Optional[Sequence] = None
) -> Path:
    """Write the tracer's spans (or ``spans``) to ``path`` as
    ``repro-trace/1``; returns the path.

    The write is atomic (tmp + fsync + replace), so the file is either
    absent or complete.
    """
    return atomic_write(path, "\n".join(trace_lines(tracer, spans)) + "\n")


class TraceStream:
    """Tracer listener that writes a run as ``repro-trace/2``.

    Every line is flushed when written. Writes hold a lock because a
    stage-timeout thread abandoned by its runner can close spans
    concurrently with the run. :meth:`close` writes the footer and
    fsyncs once; whatever closes after it is dropped. The first failed
    write stops the stream (the run itself goes on) and :meth:`close`
    raises it.

    Raises:
        OSError: ``path`` cannot be opened for writing.
    """

    def __init__(self, path: Union[str, Path], meta: Dict[str, Any]):
        self.path = Path(path)
        self._fh = open(self.path, "w", encoding="utf-8")
        self._lock = threading.Lock()
        self._closed_spans = 0
        self._ended = False
        self._error: Optional[OSError] = None
        self._write(_dumps({"schema": STREAM_SCHEMA, "meta": meta}))

    def _write(self, line: str) -> bool:
        """Append one line; the caller holds the lock (or owns ``self``)."""
        if self._ended or self._error is not None:
            return False
        try:
            self._fh.write(line + "\n")
            self._fh.flush()
        except OSError as exc:
            self._error = exc
            return False
        return True

    # -- tracer listener protocol --------------------------------------
    def on_open(self, span) -> None:
        record: Dict[str, Any] = {
            "type": "open",
            "id": span.span_id,
            "parent": span.parent_id,
            "name": span.name,
            "start": round(span.start, 9),
        }
        if span.attrs:
            record["attrs"] = span.attrs
        line = _dumps(record)
        with self._lock:
            self._write(line)

    def on_close(self, span) -> None:
        line = _dumps(_span_payload(span))
        with self._lock:
            if self._write(line):
                self._closed_spans += 1

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Write the ``run_end`` footer, fsync and close the file.

        Idempotent. Raises the first :class:`OSError` the stream met.
        """
        with self._lock:
            if self._ended:
                return
            self._write(_dumps({"type": "run_end", "spans": self._closed_spans}))
            self._ended = True
            try:
                if self._error is None:
                    os.fsync(self._fh.fileno())
            except OSError as exc:
                self._error = exc
            try:
                self._fh.close()
            except OSError as exc:
                self._error = self._error or exc
        if self._error is not None:
            raise self._error


# ----------------------------------------------------------------------
def _parse_span_line(lineno: int, record: Dict[str, Any]) -> SpanRecord:
    for key in _REQUIRED_SPAN_KEYS:
        if key not in record:
            raise TraceError(f"line {lineno}: span record missing {key!r}")
    if record["type"] != "span":
        raise TraceError(
            f"line {lineno}: unknown record type {record['type']!r}"
        )
    start, end = float(record["start"]), float(record["end"])
    if end < start:
        raise TraceError(f"line {lineno}: span ends before it starts")
    events = []
    for ev in record.get("events", []):
        if "name" not in ev or "t" not in ev:
            raise TraceError(f"line {lineno}: malformed event {ev!r}")
        events.append((ev["name"], float(ev["t"]), ev.get("attrs", {})))
    return SpanRecord(
        span_id=int(record["id"]),
        parent_id=record.get("parent"),
        name=str(record["name"]),
        start=start,
        end=end,
        attrs=record.get("attrs", {}),
        events=events,
        counters=record.get("counters", {}),
    )


def _parse_record(path: Path, lineno: int, line: str) -> Dict[str, Any]:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceError(f"{path}: line {lineno} is not valid JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise TraceError(f"{path}: line {lineno} is not a JSON object")
    return record


def read_trace(path: Union[str, Path]) -> TraceDocument:
    """Parse and validate a ``repro-trace/2`` or ``repro-trace/1`` file.

    A ``/2`` stream may be cut short: without its footer it reads back
    as far as it goes (a last line the kill tore in half is dropped),
    with the spans still open listed in ``unfinished``.

    Raises:
        TraceError: Unreadable header, unknown schema, malformed line,
            duplicate span id, a parent reference that names no span in
            the file, a close without an open, a line after the
            ``/2`` footer, or a declared span count that does not match.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise TraceError(f"cannot read trace {path}: {exc}") from exc
    lines = text.splitlines()
    if not lines:
        raise TraceError(f"{path}: empty trace file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise TraceError(f"{path}: header is not valid JSON: {exc}") from exc
    schema = header.get("schema") if isinstance(header, dict) else header
    if schema == STREAM_SCHEMA:
        torn = not text.endswith("\n")
        return _read_stream(path, header, lines, torn)
    if schema != TRACE_SCHEMA:
        raise TraceError(
            f"{path}: expected schema {STREAM_SCHEMA!r} or {TRACE_SCHEMA!r}, "
            f"got {schema!r}"
        )
    spans: List[SpanRecord] = []
    seen: Dict[int, SpanRecord] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        span = _parse_span_line(lineno, _parse_record(path, lineno, line))
        if span.span_id in seen:
            raise TraceError(
                f"{path}: line {lineno}: duplicate span id {span.span_id}"
            )
        seen[span.span_id] = span
        spans.append(span)
    for span in spans:
        if span.parent_id is not None and span.parent_id not in seen:
            raise TraceError(
                f"{path}: span {span.span_id} ({span.name!r}) references "
                f"unknown parent {span.parent_id}"
            )
    declared = header.get("spans")
    if declared is not None and declared != len(spans):
        raise TraceError(
            f"{path}: header declares {declared} spans, file has {len(spans)}"
        )
    return TraceDocument(meta=header.get("meta", {}), spans=spans)


def _read_stream(
    path: Path, header: Dict[str, Any], lines: List[str], torn: bool
) -> TraceDocument:
    """The ``repro-trace/2`` half of :func:`read_trace`."""
    opened: Set[int] = set()
    open_now: Dict[int, SpanRecord] = {}  # insertion order = open order
    spans: List[SpanRecord] = []
    footer: Optional[Dict[str, Any]] = None
    last = len(lines)
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        if footer is not None:
            raise TraceError(f"{path}: line {lineno}: record after run_end")
        try:
            record = _parse_record(path, lineno, line)
        except TraceError:
            if torn and lineno == last:
                break  # the kill cut the last write short
            raise
        kind = record.get("type")
        if kind == "open":
            for key in _REQUIRED_OPEN_KEYS:
                if key not in record:
                    raise TraceError(
                        f"{path}: line {lineno}: open record missing {key!r}"
                    )
            span_id, parent = int(record["id"]), record.get("parent")
            if span_id in opened:
                raise TraceError(
                    f"{path}: line {lineno}: span {span_id} opened twice"
                )
            if parent is not None and parent not in opened:
                raise TraceError(
                    f"{path}: line {lineno}: span {span_id} references "
                    f"unknown parent {parent}"
                )
            opened.add(span_id)
            open_now[span_id] = SpanRecord(
                span_id=span_id,
                parent_id=parent,
                name=str(record["name"]),
                start=float(record["start"]),
                end=None,
                attrs=record.get("attrs", {}),
            )
        elif kind == "span":
            try:
                span = _parse_span_line(lineno, record)
            except TraceError as exc:
                raise TraceError(f"{path}: {exc}") from exc
            if open_now.pop(span.span_id, None) is None:
                raise TraceError(
                    f"{path}: line {lineno}: close of span {span.span_id} "
                    "that is not open"
                )
            spans.append(span)
        elif kind == "run_end":
            footer = record
        else:
            raise TraceError(f"{path}: line {lineno}: unknown record type {kind!r}")
    if footer is not None and footer.get("spans") != len(spans):
        raise TraceError(
            f"{path}: run_end declares {footer.get('spans')} spans, "
            f"file has {len(spans)}"
        )
    return TraceDocument(
        meta=header.get("meta", {}),
        spans=spans,
        unfinished=list(open_now.values()),
        schema=STREAM_SCHEMA,
    )


def validate_trace(path: Union[str, Path]) -> int:
    """Validate a trace file; returns the closed span count (raises on error)."""
    return len(read_trace(path).spans)
