"""JSONL export and import for traces (schema ``repro-trace/1``).

A trace file is line-delimited JSON:

* line 1 — the header::

      {"schema": "repro-trace/1", "meta": {...}, "spans": <count>}

* one line per finished span, in finish order (children precede their
  parents, since a span finishes after everything nested in it)::

      {"type": "span", "id": 3, "parent": 1, "name": "lac/round",
       "start": 0.48, "end": 0.61, "attrs": {"n_foa": 4, ...},
       "events": [{"name": "checkpoint", "t": 0.5, "attrs": {...}}],
       "counters": {"probes": 12}}

  ``parent`` is ``null`` for root spans; ``events`` and ``counters``
  are omitted when empty. Times are seconds on the tracer's clock
  (monotonic, not wall-clock epochs).

:func:`read_trace` parses and *validates*: a malformed line, a missing
field, a dangling parent reference or ``end < start`` raises
:class:`TraceError` naming the offending line. ``python -m repro trace
validate`` exposes the same check on the command line (CI runs it on
the smoke trace).
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import ReproError
from repro.ioutil import atomic_write

TRACE_SCHEMA = "repro-trace/1"

_REQUIRED_SPAN_KEYS = ("type", "id", "name", "start", "end")


class TraceError(ReproError):
    """A trace file failed to parse or validate."""


@dataclasses.dataclass
class SpanRecord:
    """One span as read back from a trace file."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: float
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
    """A fully parsed trace: header metadata plus all spans."""

    meta: Dict[str, Any]
    spans: List[SpanRecord]

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


def trace_lines(tracer, spans: Optional[Sequence] = None) -> Iterator[str]:
    """Serialise ``spans`` (default: the tracer's) as ``repro-trace/1`` lines."""
    spans = tracer.spans if spans is None else spans
    header = {
        "schema": TRACE_SCHEMA,
        "meta": tracer.meta,
        "spans": len(spans),
    }
    yield json.dumps(header, sort_keys=True, default=_json_default)
    for span in spans:
        yield json.dumps(
            _span_payload(span), sort_keys=True, default=_json_default
        )


def write_trace(
    tracer, path: Union[str, Path], spans: Optional[Sequence] = None
) -> Path:
    """Write the tracer's spans (or ``spans``) to ``path``; returns the path.

    The write is atomic (tmp + fsync + replace): a kill mid-export —
    exactly when post-mortem traces matter most — never leaves a
    truncated JSONL behind.
    """
    return atomic_write(path, "\n".join(trace_lines(tracer, spans)) + "\n")


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


def read_trace(path: Union[str, Path]) -> TraceDocument:
    """Parse and validate a ``repro-trace/1`` file.

    Raises:
        TraceError: Unreadable header, wrong schema, malformed span
            line, duplicate span id, or a parent reference that names
            no span in the file.
    """
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise TraceError(f"cannot read trace {path}: {exc}") from exc
    if not lines:
        raise TraceError(f"{path}: empty trace file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise TraceError(f"{path}: header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict) or header.get("schema") != TRACE_SCHEMA:
        raise TraceError(
            f"{path}: expected schema {TRACE_SCHEMA!r}, "
            f"got {header.get('schema') if isinstance(header, dict) else header!r}"
        )
    spans: List[SpanRecord] = []
    seen: Dict[int, SpanRecord] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceError(
                f"{path}: line {lineno} is not valid JSON: {exc}"
            ) from exc
        span = _parse_span_line(lineno, record)
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


def validate_trace(path: Union[str, Path]) -> int:
    """Validate a trace file; returns the span count (raises on error)."""
    return len(read_trace(path).spans)
