"""The plumbing of one planning run: telemetry, durability, cache, faults.

:class:`~repro.core.planner.PlannerConfig` says *what* a plan
computes; :class:`RunContext` says how the run is carried out. None of
it changes a result, so the run fingerprint hashes the config alone.

:meth:`RunContext.session` owns the setup and teardown around a plan.
It checks every sink path before the first stage, gives every plan a
real tracer (the ledger, perf table and metrics are views of the spans
this run closed), attaches the metrics registry, then the resource
monitor, then progress (so progress events carry derived metrics and
resource stamps) and binds the checkpoint store to the run
fingerprint. On exit, on failure too, it undoes each step and writes
the trace, metrics and ``.prom`` files.
"""

from __future__ import annotations

import contextlib
import dataclasses
import logging
import time
from pathlib import Path
from typing import Any, Iterator, Optional

from repro.compile import CompileCache
from repro.errors import TelemetryError
from repro.obs import Tracer
from repro.obs.export import write_trace
from repro.obs.metrics import MetricsRegistry, write_metrics, write_prometheus
from repro.obs.monitor import ResourceSampler
from repro.obs.progress import open_progress
from repro.resilience.checkpoint import CheckpointManager, run_fingerprint
from repro.resilience.faults import FaultInjector
from repro.resilience.policy import ResilienceConfig, default_resilience

log = logging.getLogger(__name__)

#: Seconds between resource-monitor samples on instrumented runs.
MONITOR_INTERVAL = 0.05


@dataclasses.dataclass
class RunContext:
    """Everything about a run that is not the flow's own configuration.

    A live sink object wins over a path for the same sink; see the
    ``RunContext`` table in ``docs/api.md``.
    """

    tracer: Optional[Tracer] = None  # None -> session() builds one per plan
    metrics: Optional[MetricsRegistry] = None  # a listener on the run's tracer
    perf: Optional[Any] = None  # PerfRecorder fed the finished run's spans
    progress: Optional[Any] = None  # caller-owned event sink, only detached
    checkpoint: Optional[CheckpointManager] = None  # bound to the fingerprint
    compile_cache: Optional[CompileCache] = None  # None -> process-local LRU
    faults: Optional[FaultInjector] = None
    resilience: Optional[ResilienceConfig] = None  # None -> default posture
    trace_path: Optional[str] = None  # repro-trace/1 JSONL
    metrics_path: Optional[str] = None  # repro-metrics/1 JSONL + .prom sibling
    progress_path: Optional[str] = None  # repro-events/1 stream ("-" = TTY)

    def __post_init__(self) -> None:
        if self.compile_cache is not None and not isinstance(
            self.compile_cache, CompileCache
        ):
            raise TypeError(
                "RunContext.compile_cache must be a CompileCache, got "
                f"{self.compile_cache!r}"
            )

    @property
    def instrumented(self) -> bool:
        """True when a sink reads the spans: the run is then monitored."""
        paths = self.trace_path or self.metrics_path or self.progress_path
        sinks = (self.perf, self.metrics, self.progress)
        tracing = getattr(self.tracer, "enabled", False)
        return bool(paths) or tracing or any(s is not None for s in sinks)

    @contextlib.contextmanager
    def session(self, graph, config, max_iterations: int) -> Iterator["RunContext"]:
        """Set up the run's plumbing; yields the resolved context.

        In the yielded copy ``tracer`` (always a real one),
        ``compile_cache`` and ``resilience`` are never ``None``. Raises
        :class:`~repro.errors.TelemetryError` before any work when a
        sink path cannot be written.
        """
        for path in (self.trace_path, self.metrics_path, self.progress_path):
            if path and path != "-":
                _prepare_sink(path)
        meta = {"circuit": graph.name, "seed": config.seed}
        tracer = self.tracer
        if tracer is None or not tracer.enabled:
            # wall_start anchors the monotonic span clock to the epoch
            # so traces can be correlated across runs and with logs.
            tracer = Tracer(meta={**meta, "wall_start": round(time.time(), 6)})
        # A caller's tracer may hold earlier runs; the views are this run's.
        first_span = len(tracer.spans)
        metrics = self.metrics
        if metrics is None and self.metrics_path:
            metrics = MetricsRegistry(meta=meta)
        progress = self.progress
        with contextlib.ExitStack() as stack:
            # Teardown runs in reverse: progress, monitor, registry, files.
            if metrics is not None and self.metrics_path:
                prom = Path(self.metrics_path).with_suffix(".prom")
                stack.push(_sink_writer(write_prometheus, metrics, prom))
                stack.push(_sink_writer(write_metrics, metrics, self.metrics_path))
            if self.trace_path:
                own = lambda t, path: write_trace(t, path, t.spans[first_span:])
                stack.push(_sink_writer(own, tracer, self.trace_path))
            if metrics is not None:
                tracer.add_listener(metrics)
                stack.callback(tracer.remove_listener, metrics)
            if self.instrumented:
                sampler = ResourceSampler(interval=MONITOR_INTERVAL, metrics=metrics)
                tracer.add_listener(sampler)
                stack.callback(tracer.remove_listener, sampler)
                stack.enter_context(sampler)
            if progress is None and self.progress_path:
                progress = open_progress(self.progress_path)
                # A stream this run opened gets its terminal run_end line.
                stack.callback(
                    lambda: progress.close(spans=len(tracer.spans) - first_span)
                )
            elif progress is not None:
                # A caller-owned stream (table1 sharing one across
                # circuits) is only detached; its owner closes it.
                stack.callback(progress.detach)
            if progress is not None:
                progress.attach(tracer, metrics=metrics)
            if self.checkpoint is not None:
                self.checkpoint.bind(
                    graph.name, run_fingerprint(graph, config, max_iterations)
                )
                if self.checkpoint.faults is None:
                    self.checkpoint.faults = self.faults
            yield dataclasses.replace(
                self,
                tracer=tracer,
                metrics=metrics,
                progress=progress,
                compile_cache=self.compile_cache or CompileCache(),
                resilience=self.resilience or default_resilience(),
            )
            if self.perf is not None:
                self.perf.ingest_spans(tracer.spans[first_span:])


def _prepare_sink(path: str) -> None:
    """Create ``path``'s parent directories, or fail naming the path."""
    target = Path(path)
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise TelemetryError(
            f"cannot write {path}: {target.parent} is not a directory"
        ) from exc
    except OSError as exc:
        raise TelemetryError(
            f"cannot write {path}: cannot create {target.parent}: {exc.strerror}"
        ) from exc
    if target.is_dir():
        raise TelemetryError(f"cannot write {path}: it is a directory")


def _sink_writer(write, source, path):
    """An exit callback that writes one sink file.

    A failed write after a clean run raises :class:`TelemetryError`.
    When the run is already failing, the write error is only logged so
    the run's own exception (an interrupt stays resumable) propagates.
    """

    def _exit(exc_type, exc, tb) -> bool:
        try:
            write(source, path)
        except OSError as err:
            if exc_type is None:
                raise TelemetryError(f"cannot write {path}: {err}") from err
            log.warning("cannot write %s: %s", path, err)
        return False

    return _exit
