"""Structured observability for the planning pipeline.

``repro.obs`` is the tracing layer the rest of the library reports
into: a hierarchical span tracer (:class:`Tracer`) with nested spans,
attributes, timestamped events and counters; a zero-overhead no-op
tracer (:data:`NOOP_TRACER`), the default of direct library calls; the
trace file, ``repro-trace/2``, streamed by :class:`TraceStream` as
spans open and close and read back (``repro-trace/1`` too) by
:func:`read_trace`; and a renderer
(:func:`~repro.obs.summarize.summarize`) that turns a trace into a
span tree with self/total times plus the per-round convergence tables
(LAC reweighting, FEAS probes, floorplan annealing, FM passes).

The tracer's span tree is a run's one telemetry record and the trace
file its one artifact. The rest are views of it: a metrics registry
that derives counters/gauges/histograms from closing spans, live or
replayed from a trace (:mod:`repro.obs.metrics`, rendered as
Prometheus text), a resource monitor that attributes peak RSS / CPU
to spans (:mod:`repro.obs.monitor`), a human progress view on stderr
(:mod:`repro.obs.progress`) and a folded-stacks flamegraph export
(:mod:`repro.obs.flamegraph`).

Typical use::

    from repro.core import RunContext, plan_interconnect
    from repro.obs import read_trace
    from repro.obs.summarize import summarize

    outcome = plan_interconnect(graph, ctx=RunContext(trace_path="out.jsonl"))
    print(summarize(read_trace("out.jsonl")))

or ``python -m repro plan s1423 --trace out.jsonl`` (``tail -f
out.jsonl`` follows the run) followed by ``python -m repro trace
summarize out.jsonl`` and ``python -m repro trace metrics out.jsonl``.
"""

from repro.obs.export import (
    STREAM_SCHEMA,
    TRACE_SCHEMA,
    SpanRecord,
    TraceDocument,
    TraceError,
    TraceStream,
    read_trace,
    trace_lines,
    validate_trace,
    write_trace,
)
from repro.obs.flamegraph import folded_stacks, write_flamegraph
from repro.obs.metrics import MetricsRegistry, prometheus_lines, replay_metrics
from repro.obs.monitor import ResourceSample, ResourceSampler
from repro.obs.progress import HumanProgress
from repro.obs.tracer import NOOP_TRACER, NoopTracer, Span, Tracer

__all__ = [
    "Tracer",
    "NoopTracer",
    "NOOP_TRACER",
    "Span",
    "STREAM_SCHEMA",
    "TRACE_SCHEMA",
    "SpanRecord",
    "TraceDocument",
    "TraceError",
    "TraceStream",
    "read_trace",
    "trace_lines",
    "validate_trace",
    "write_trace",
    "MetricsRegistry",
    "prometheus_lines",
    "replay_metrics",
    "ResourceSampler",
    "ResourceSample",
    "HumanProgress",
    "folded_stacks",
    "write_flamegraph",
]
