"""Resource and work metrics: counters, gauges and histograms.

Where the span tracer (:mod:`repro.obs.tracer`) answers *where did the
wall clock go*, the :class:`MetricsRegistry` answers *how much work was
done and what did it cost*: solver iterations, cache hits, period
probes, annealing moves, rip-up passes, process RSS and CPU. Every
instrument carries a label set (``counter("feas_probes_total",
verdict="feasible")``), so one metric name fans out into per-dimension
series exactly like Prometheus labels do.

The planner's metrics are a view of its span tree: a registry attached
to a tracer derives them from each closing span through one table,
:data:`SPAN_METRICS`. The only other writer is the resource monitor's
``process_*`` gauges.

A trace is enough to rebuild them: :func:`replay_metrics` feeds a
trace document's closed spans through a fresh registry, and
:func:`prometheus_lines` renders any registry in the Prometheus text
exposition format (``python -m repro trace metrics FILE``).
"""

from __future__ import annotations

import dataclasses
import re
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

#: Default histogram bucket upper bounds (seconds-flavoured; callers
#: with other units pass their own).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

LabelItems = Tuple[Tuple[str, str], ...]


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _label_items(labels: Dict[str, Any]) -> LabelItems:
    for key in labels:
        if not _LABEL_RE.match(key):
            raise ValueError(f"invalid label name {key!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing count of events."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: LabelItems):
        self.name = name
        self.labels = labels
        self.value: float = 0

    def inc(self, n: float = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {n})")
        self.value += n


class Gauge:
    """A value that goes up and down (queue depth, RSS, temperature)."""

    __slots__ = ("name", "labels", "value", "max_value")
    kind = "gauge"

    def __init__(self, name: str, labels: LabelItems):
        self.name = name
        self.labels = labels
        self.value: float = 0
        self.max_value: float = 0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max_value:
            self.max_value = value

    def inc(self, n: float = 1) -> None:
        self.set(self.value + n)

    def dec(self, n: float = 1) -> None:
        self.value -= n


class Histogram:
    """Distribution of observations in cumulative buckets."""

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "sum", "count")
    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: LabelItems,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket")
        self.name = name
        self.labels = labels
        self.bounds = bounds  # finite upper bounds; +Inf is implicit
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    def cumulative(self) -> List[Tuple[Union[float, str], int]]:
        """Prometheus-style cumulative ``(le, count)`` pairs."""
        out: List[Tuple[Union[float, str], int]] = []
        running = 0
        for bound, n in zip(self.bounds, self.bucket_counts):
            running += n
            out.append((bound, running))
        out.append(("+Inf", self.count))
        return out


Instrument = Union[Counter, Gauge, Histogram]


# ----------------------------------------------------------------------
# Planner metrics as a view of the span tree

#: :data:`SPAN_METRICS` key of the rows every stage span feeds.
STAGE = "<stage>"
#: Label source naming the closing span itself (the stage name).
SPAN_NAME = "<name>"


@dataclasses.dataclass(frozen=True)
class SpanMetric:
    """One planner metric derived from a closing span.

    With ``event`` set the row yields one sample per event of that
    name, read from the event's attributes; otherwise one per span.
    ``value`` is a source attribute or a constant; a label source is an
    attribute, :data:`SPAN_NAME` or an ``"=constant"``. A row whose
    sources are missing yields nothing (a resumed ``compile`` stage has
    no ``cache`` attribute).
    """

    kind: str
    metric: str
    value: Union[str, int] = 1
    labels: Dict[str, str] = dataclasses.field(default_factory=dict)
    event: Optional[str] = None


_STAGE = {"stage": SPAN_NAME}
_VERDICT = {"verdict": "verdict"}

#: Every planner metric by source span name; ``docs/api.md`` mirrors it.
SPAN_METRICS: Dict[str, Tuple[SpanMetric, ...]] = {
    "partition/fm": (
        SpanMetric("counter", "fm_passes_total", "passes"),
        SpanMetric("gauge", "fm_final_cut", "final_cut"),
    ),
    "floorplan/anneal": (
        SpanMetric("counter", "anneal_moves_total", "iterations"),
        SpanMetric("counter", "anneal_accepts_total", "accepted"),
    ),
    "route/global": (
        SpanMetric("counter", "route_ripup_total", "ripped_nets", event="rrr_pass"),
        SpanMetric("counter", "route_nets_total", "nets"),
        SpanMetric("gauge", "route_overflowed_cells", "overflowed_cells"),
    ),
    "compile": (
        SpanMetric("counter", "compile_cache_total", labels={"result": "cache"}),
        SpanMetric("gauge", "compile_candidates", "n_candidates"),
    ),
    "feas/probe": (SpanMetric("counter", "feas_probes_total", 1, _VERDICT),),
    "lac/round": (
        SpanMetric("counter", "lac_rounds_total"),
        SpanMetric("gauge", "lac_n_foa", "n_foa"),
    ),
    STAGE: (
        SpanMetric(
            "counter",
            "stage_attempts_total",
            labels={**_STAGE, "status": "status"},
            event="attempt",
        ),
        SpanMetric("histogram", "stage_seconds", "seconds", _STAGE, "attempt"),
    ),
}


def _resolve(source: Union[str, int], span_name: str, attrs: Dict[str, Any]):
    if not isinstance(source, str):
        return source
    if source == SPAN_NAME:
        return span_name
    if source.startswith("="):
        return source[1:]
    return attrs.get(source)


class MetricsRegistry:
    """Get-or-create store of instruments, keyed by (name, labels).

    The registry preserves first-seen order, so exports are stable
    across identical runs (deterministic given a deterministic
    workload).

    Attached to a tracer (``tracer.add_listener(registry)``) it derives
    the :data:`SPAN_METRICS` rows of every span that closes, before any
    listener attached after it sees the close.
    """

    enabled = True

    def __init__(self):
        self._metrics: Dict[Tuple[str, str, LabelItems], Instrument] = {}
        self._kinds: Dict[str, str] = {}
        self._help: Dict[str, str] = {}

    # ------------------------------------------------------------------
    def _get(self, kind: str, name: str, labels: Dict[str, Any], factory):
        seen = self._kinds.get(name)
        if seen is not None and seen != kind:
            raise ValueError(
                f"metric {name!r} already registered as a {seen}, not a {kind}"
            )
        key = (kind, name, _label_items(labels))
        instrument = self._metrics.get(key)
        if instrument is None:
            _check_name(name)
            instrument = self._metrics[key] = factory(name, key[2])
            self._kinds[name] = kind
        return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get("counter", name, labels, Counter)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get("gauge", name, labels, Gauge)

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        **labels: Any,
    ) -> Histogram:
        return self._get(
            "histogram",
            name,
            labels,
            lambda n, l: Histogram(n, l, buckets=buckets),
        )

    def describe(self, name: str, help_text: str) -> None:
        """Attach HELP text, emitted in the Prometheus exposition."""
        self._help[name] = help_text

    # -- tracer listener ----------------------------------------------
    def on_open(self, span) -> None:
        pass

    def on_close(self, span) -> None:
        """Derive the closing span's rows of :data:`SPAN_METRICS`."""
        rows = SPAN_METRICS.get(span.name, ())
        if span.attrs.get("kind") == "stage":
            rows += SPAN_METRICS[STAGE]
        for row in rows:
            if row.event is None:
                self._derive(row, span.name, span.attrs)
            for name, _t, attrs in span.events:
                if name == row.event:
                    self._derive(row, span.name, attrs)

    def _derive(self, row: SpanMetric, span_name: str, attrs) -> None:
        labels = {k: _resolve(v, span_name, attrs) for k, v in row.labels.items()}
        value = _resolve(row.value, span_name, attrs)
        if value is None or None in labels.values():
            return
        if row.kind == "counter":
            self.counter(row.metric, **labels).inc(value)
        elif row.kind == "gauge":
            self.gauge(row.metric, **labels).set(value)
        else:
            self.histogram(row.metric, **labels).observe(value)

    # ------------------------------------------------------------------
    @property
    def instruments(self) -> List[Instrument]:
        return list(self._metrics.values())


def replay_metrics(doc) -> MetricsRegistry:
    """The planner metrics of a trace document, rebuilt from its spans.

    Feeds ``doc.spans`` (closed spans, in close order) through a fresh
    registry's :meth:`~MetricsRegistry.on_close`, which is what a live
    registry saw during the run; the resource monitor's ``process_*``
    gauges are not in a trace and do not come back.
    """
    registry = MetricsRegistry()
    for span in doc.spans:
        registry.on_close(span)
    return registry


# ----------------------------------------------------------------------
# Prometheus text exposition format

def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _label_str(labels: LabelItems, extra: Optional[Tuple[str, str]] = None) -> str:
    items = list(labels)
    if extra is not None:
        items.append(extra)
    if not items:
        return ""
    body = ",".join(f'{k}="{_escape_label(v)}"' for k, v in items)
    return "{" + body + "}"


def _round(value: float) -> Union[int, float]:
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return round(value, 9)


def _fmt_value(value: float) -> str:
    rounded = _round(value)
    return str(rounded)


def prometheus_lines(registry: MetricsRegistry) -> List[str]:
    """Render the registry in the Prometheus text exposition format."""
    lines: List[str] = []
    typed: set = set()
    for inst in registry.instruments:
        if inst.name not in typed:
            typed.add(inst.name)
            help_text = registry._help.get(inst.name)
            if help_text:
                lines.append(f"# HELP {inst.name} {help_text}")
            lines.append(f"# TYPE {inst.name} {inst.kind}")
        if isinstance(inst, Histogram):
            for le, cum in inst.cumulative():
                le_s = le if isinstance(le, str) else _fmt_value(le)
                lines.append(
                    f"{inst.name}_bucket"
                    f"{_label_str(inst.labels, ('le', str(le_s)))} {cum}"
                )
            lines.append(
                f"{inst.name}_sum{_label_str(inst.labels)} "
                f"{_fmt_value(inst.sum)}"
            )
            lines.append(
                f"{inst.name}_count{_label_str(inst.labels)} {inst.count}"
            )
        else:
            lines.append(
                f"{inst.name}{_label_str(inst.labels)} "
                f"{_fmt_value(inst.value)}"
            )
    return lines
