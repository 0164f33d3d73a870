"""Structured observability for the planning pipeline.

``repro.obs`` is the tracing layer the rest of the library reports
into: a hierarchical span tracer (:class:`Tracer`) with nested spans,
attributes, timestamped events and counters; a zero-overhead no-op
tracer (:data:`NOOP_TRACER`), the default of direct library calls; a
JSONL exporter/reader for the ``repro-trace/1`` schema; and a renderer
(:func:`~repro.obs.summarize.summarize`) that turns a trace into a
span tree with self/total times plus the per-round convergence tables
(LAC reweighting, FEAS probes, floorplan annealing, FM passes).

Alongside the tracer, whose span tree is a run's one telemetry record,
live three sibling layers: a metrics registry that derives its
counters/gauges/histograms from closing spans (:mod:`repro.obs.metrics`,
exported as ``repro-metrics/1`` JSONL and Prometheus text), a resource
monitor that attributes peak RSS / CPU to spans
(:mod:`repro.obs.monitor`), and live progress streaming
(:mod:`repro.obs.progress`, the ``repro-events/1`` feed behind
``--progress``) plus a folded-stacks flamegraph export
(:mod:`repro.obs.flamegraph`).

Typical use::

    from repro.core import RunContext, plan_interconnect
    from repro.obs import Tracer
    from repro.obs.export import write_trace

    tracer = Tracer()
    outcome = plan_interconnect(graph, ctx=RunContext(tracer=tracer))
    write_trace(tracer, "out.jsonl")

or, equivalently, ``plan_interconnect(graph,
ctx=RunContext(trace_path="out.jsonl"))`` / ``python -m repro plan
s1423 --trace out.jsonl`` followed by ``python -m repro trace
summarize out.jsonl``.
"""

from repro.obs.export import (
    TRACE_SCHEMA,
    SpanRecord,
    TraceDocument,
    TraceError,
    read_trace,
    trace_lines,
    validate_trace,
    write_trace,
)
from repro.obs.flamegraph import folded_stacks, write_flamegraph
from repro.obs.metrics import (
    METRICS_SCHEMA,
    MetricsDocument,
    MetricsError,
    MetricsRegistry,
    metrics_lines,
    prometheus_lines,
    read_metrics,
    validate_metrics,
    write_metrics,
    write_prometheus,
)
from repro.obs.monitor import ResourceSample, ResourceSampler
from repro.obs.progress import (
    EVENTS_SCHEMA,
    HumanProgress,
    ProgressStream,
    open_progress,
    read_events,
    validate_events,
)
from repro.obs.tracer import NOOP_TRACER, NoopTracer, Span, Tracer

__all__ = [
    "Tracer",
    "NoopTracer",
    "NOOP_TRACER",
    "Span",
    "TRACE_SCHEMA",
    "SpanRecord",
    "TraceDocument",
    "TraceError",
    "read_trace",
    "trace_lines",
    "validate_trace",
    "write_trace",
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "MetricsDocument",
    "MetricsError",
    "metrics_lines",
    "write_metrics",
    "read_metrics",
    "validate_metrics",
    "prometheus_lines",
    "write_prometheus",
    "ResourceSampler",
    "ResourceSample",
    "EVENTS_SCHEMA",
    "ProgressStream",
    "HumanProgress",
    "open_progress",
    "read_events",
    "validate_events",
    "folded_stacks",
    "write_flamegraph",
]
