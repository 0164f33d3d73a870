"""The plumbing of one planning run: telemetry, durability, cache, faults.

:class:`~repro.core.planner.PlannerConfig` says *what* a plan
computes; :class:`RunContext` says how the run is carried out. None of
it changes a result, so the run fingerprint hashes the config alone.

:meth:`RunContext.session` owns the setup and teardown around a plan.
It checks the trace path before the first stage, gives every plan a
real tracer (the ledger, perf table and metrics are views of the spans
this run closed), attaches the metrics registry, then the resource
monitor, then progress, then the trace stream (so its close lines
carry the monitor's resource stamps) and binds the checkpoint store to
the run fingerprint. On exit, on failure too, it undoes each step; the
trace gets its ``run_end`` footer.
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
from repro.obs.export import TraceStream
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitor import ResourceSampler
from repro.resilience.checkpoint import CheckpointManager, run_fingerprint
from repro.resilience.faults import FaultInjector
from repro.resilience.policy import ResilienceConfig, default_resilience

log = logging.getLogger(__name__)

#: Seconds between resource-monitor samples on instrumented runs.
MONITOR_INTERVAL = 0.05


@dataclasses.dataclass
class RunContext:
    """Everything about a run that is not the flow's own configuration.

    See the ``RunContext`` table in ``docs/api.md``.
    """

    tracer: Optional[Tracer] = None  # None -> session() builds one per plan
    metrics: Optional[MetricsRegistry] = None  # a listener on the run's tracer
    perf: Optional[Any] = None  # PerfRecorder fed the finished run's spans
    progress: Optional[Any] = None  # caller-owned span listener, only detached
    checkpoint: Optional[CheckpointManager] = None  # bound to the fingerprint
    compile_cache: Optional[CompileCache] = None  # None -> process-local LRU
    faults: Optional[FaultInjector] = None
    resilience: Optional[ResilienceConfig] = None  # None -> default posture
    trace_path: Optional[str] = None  # repro-trace/2, streamed as spans close

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
        sinks = (self.perf, self.metrics, self.progress)
        tracing = getattr(self.tracer, "enabled", False)
        return bool(self.trace_path) or tracing or any(s is not None for s in sinks)

    @contextlib.contextmanager
    def session(self, graph, config, max_iterations: int) -> Iterator["RunContext"]:
        """Set up the run's plumbing; yields the resolved context.

        In the yielded copy ``tracer`` (always a real one),
        ``compile_cache`` and ``resilience`` are never ``None``. Raises
        :class:`~repro.errors.TelemetryError` before any work when the
        trace path cannot be written.
        """
        if self.trace_path:
            _prepare_sink(self.trace_path)
        tracer = self.tracer
        if tracer is None or not tracer.enabled:
            # wall_start anchors the monotonic span clock to the epoch
            # so traces can be correlated across runs and with logs.
            tracer = Tracer(
                meta={
                    "circuit": graph.name,
                    "seed": config.seed,
                    "wall_start": round(time.time(), 6),
                }
            )
        # A caller's tracer may hold earlier runs; the views are this run's.
        first_span = len(tracer.spans)
        with contextlib.ExitStack() as stack:
            # Teardown runs in reverse: trace, progress, monitor, registry.
            if self.metrics is not None:
                tracer.add_listener(self.metrics)
                stack.callback(tracer.remove_listener, self.metrics)
            if self.instrumented:
                sampler = ResourceSampler(
                    interval=MONITOR_INTERVAL, metrics=self.metrics
                )
                tracer.add_listener(sampler)
                stack.callback(tracer.remove_listener, sampler)
                stack.enter_context(sampler)
            if self.progress is not None:
                # A caller-owned view (table1 sharing one across
                # circuits) is only detached.
                tracer.add_listener(self.progress)
                stack.callback(tracer.remove_listener, self.progress)
            if self.trace_path:
                try:
                    stream = TraceStream(self.trace_path, tracer.meta)
                except OSError as exc:
                    raise TelemetryError(
                        f"cannot write {self.trace_path}: {exc.strerror}"
                    ) from exc
                tracer.add_listener(stream)
                stack.push(_trace_closer(tracer, stream))
            if self.checkpoint is not None:
                self.checkpoint.bind(
                    graph.name, run_fingerprint(graph, config, max_iterations)
                )
                if self.checkpoint.faults is None:
                    self.checkpoint.faults = self.faults
            yield dataclasses.replace(
                self,
                tracer=tracer,
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


def _trace_closer(tracer, stream: TraceStream):
    """An exit callback that detaches the trace stream and ends it.

    A failed write after a clean run raises :class:`TelemetryError`.
    When the run is already failing, the write error is only logged so
    the run's own exception (an interrupt stays resumable) propagates.
    """

    def _exit(exc_type, exc, tb) -> bool:
        tracer.remove_listener(stream)
        try:
            stream.close()
        except OSError as err:
            if exc_type is None:
                raise TelemetryError(f"cannot write {stream.path}: {err}") from err
            log.warning("cannot write %s: %s", stream.path, err)
        return False

    return _exit
