"""Background resource sampling with span attribution.

The :class:`ResourceSampler` watches the process while the planner
runs: a daemon thread samples RSS, CPU time and GC activity at a fixed
interval, and — registered as a tracer listener — attributes what it
sees to the spans open at each sample. When a span closes the sampler
stamps it with:

* ``peak_rss_bytes`` — the highest RSS observed while the span was
  open (including a sample taken at close, so short spans still get a
  reading);
* ``cpu_seconds``   — process CPU (user+system, all threads) consumed
  between open and close;
* ``gc_collections`` — completed GC passes between open and close.

``trace summarize`` and :class:`~repro.perf.recorder.PerfRecorder`
read those attributes back into per-stage peak-memory and CPU columns,
and the bench harness persists them in ``BENCH_<n>.json`` — the
resource ledger that memory-driven scaling decisions (sharding,
chunked W-D generation) need.

Sources, in order of preference, with **no dependencies beyond the
standard library**:

* RSS: ``/proc/self/statm`` (current resident set, Linux); falls back
  to ``resource.getrusage`` ``ru_maxrss`` (peak, not current — close
  enough for peak attribution, which is the quantity we keep);
* CPU: ``os.times()`` (user + system of this process);
* GC: ``gc.get_stats()`` collection counts.

Monitoring must never take a run down with it. When the sample source
*raises* (no ``/proc`` and a broken ``resource`` module, a sandbox
denying the reads), the sampler **degrades**: the first failure is
logged once at DEBUG, :attr:`ResourceSampler.degraded` flips, the
background thread is never started (``start()`` probes once first),
and spans close unstamped — the plan completes exactly as it would
unmonitored, its traces merely lack the resource columns. When the
source works but no RSS reading is available (the fallback returns
``0``), CPU and GC are still stamped and only ``peak_rss_bytes`` is
omitted — readers already treat every monitor attribute as optional.

Everything is injectable for tests: ``clock`` (monotonic seconds) and
``sample_fn`` (returns ``(rss_bytes, cpu_seconds, gc_collections)``),
and :meth:`ResourceSampler.sample_once` drives one deterministic
sample without any thread.
"""

from __future__ import annotations

import dataclasses
import gc
import logging
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, Optional, Tuple

log = logging.getLogger(__name__)

__all__ = [
    "ResourceSample",
    "ResourceSampler",
    "read_rss_bytes",
    "read_cpu_seconds",
    "read_gc_collections",
]

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096

#: Span attributes the sampler stamps at close; readers treat all of
#: them as optional (pre-monitor traces simply lack them).
MONITOR_ATTRS = ("peak_rss_bytes", "cpu_seconds", "gc_collections")


def read_rss_bytes() -> int:
    """Current resident set size in bytes (best available source)."""
    try:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        pass
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Linux reports KiB, macOS bytes.
        return peak if sys.platform == "darwin" else peak * 1024
    except Exception:
        return 0


def read_cpu_seconds() -> float:
    """Process CPU time (user + system, all threads) in seconds."""
    t = os.times()
    return t.user + t.system


def read_gc_collections() -> int:
    """Total completed GC passes across all generations."""
    return sum(s.get("collections", 0) for s in gc.get_stats())


def _default_sample_fn() -> Tuple[int, float, int]:
    return read_rss_bytes(), read_cpu_seconds(), read_gc_collections()


@dataclasses.dataclass
class ResourceSample:
    """One observation of the process."""

    t: float
    rss_bytes: int
    cpu_seconds: float
    gc_collections: int


@dataclasses.dataclass
class _SpanUsage:
    """Baseline and running peak for one open span."""

    cpu_at_open: float
    gc_at_open: int
    peak_rss: int


class ResourceSampler:
    """Samples process resources and attributes them to open spans.

    Use as a tracer listener plus (optionally) a background thread::

        sampler = ResourceSampler(interval=0.05, metrics=registry)
        tracer.add_listener(sampler)
        with sampler:                  # starts/stops the thread
            ... traced work ...

    Or drive it deterministically in tests with an injected ``clock``
    and ``sample_fn`` and explicit :meth:`sample_once` calls (no
    thread involved).

    Args:
        interval: Seconds between background samples.
        clock: Monotonic time source; must match the tracer's clock so
            stamped values line up with span times.
        sample_fn: Returns ``(rss_bytes, cpu_seconds, gc_collections)``;
            injectable for deterministic tests.
        metrics: Optional :class:`~repro.obs.metrics.MetricsRegistry`;
            each sample updates ``process_rss_bytes`` /
            ``process_cpu_seconds`` gauges and a
            ``monitor_samples_total`` counter.
        stamp_min_seconds: Spans shorter than this are not stamped
            (unless they are stage spans or roots) — per-probe resource
            numbers at a 50 ms sampling interval are noise, and
            stamping thousands of sub-millisecond solver spans bloats
            traces for no signal.
    """

    def __init__(
        self,
        interval: float = 0.05,
        clock: Callable[[], float] = time.perf_counter,
        sample_fn: Optional[Callable[[], Tuple[int, float, int]]] = None,
        metrics=None,
        stamp_min_seconds: float = 0.005,
    ):
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self.interval = interval
        self.stamp_min_seconds = stamp_min_seconds
        self._clock = clock
        self._sample_fn = sample_fn or _default_sample_fn
        self._metrics = metrics
        self._lock = threading.Lock()
        self._open: Dict[int, _SpanUsage] = {}
        self._last: Optional[ResourceSample] = None
        self.peak_rss_bytes = 0
        self.samples_taken = 0
        #: True once the sample source has raised; the sampler then
        #: stamps nothing and the background thread stays off.
        self.degraded = False
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # -- sampling ------------------------------------------------------
    def _fresh_sample(self) -> ResourceSample:
        try:
            rss, cpu, gc_n = self._sample_fn()
        except Exception as exc:
            if not self.degraded:
                self.degraded = True
                log.debug(
                    "resource sampling unavailable (%s: %s); "
                    "monitoring degrades to unstamped spans",
                    type(exc).__name__,
                    exc,
                )
            last = self._last
            if last is not None:
                return ResourceSample(
                    self._clock(),
                    last.rss_bytes,
                    last.cpu_seconds,
                    last.gc_collections,
                )
            return ResourceSample(self._clock(), 0, 0.0, 0)
        return ResourceSample(self._clock(), rss, cpu, gc_n)

    def _observe(self, sample: ResourceSample) -> None:
        """Fold one sample into peaks and gauges. Caller holds the lock."""
        self._last = sample
        self.samples_taken += 1
        if sample.rss_bytes > self.peak_rss_bytes:
            self.peak_rss_bytes = sample.rss_bytes
        for usage in self._open.values():
            if sample.rss_bytes > usage.peak_rss:
                usage.peak_rss = sample.rss_bytes
        if self._metrics is not None:
            self._metrics.gauge("process_rss_bytes").set(sample.rss_bytes)
            self._metrics.gauge("process_cpu_seconds").set(sample.cpu_seconds)
            self._metrics.counter("monitor_samples_total").inc()

    def sample_once(self) -> ResourceSample:
        """Take one sample now; deterministic test entry point."""
        sample = self._fresh_sample()
        with self._lock:
            self._observe(sample)
        return sample

    def _cached_sample(self) -> ResourceSample:
        """A recent sample, resampling only when the cache is stale.

        Span open/close happens far more often than the sampling
        interval (thousands of FEAS probes per search); re-reading
        ``/proc`` for each would tax exactly the hot paths the monitor
        exists to watch, and within half an interval the numbers
        cannot have meaningfully moved.
        """
        last = self._last
        if last is not None and self._clock() - last.t < self.interval / 2:
            return last
        sample = self._fresh_sample()
        self._observe(sample)
        return sample

    # -- tracer listener protocol --------------------------------------
    def on_open(self, span) -> None:
        with self._lock:
            sample = self._cached_sample()
            self._open[id(span)] = _SpanUsage(
                cpu_at_open=sample.cpu_seconds,
                gc_at_open=sample.gc_collections,
                peak_rss=sample.rss_bytes,
            )

    def on_close(self, span) -> None:
        with self._lock:
            usage = self._open.pop(id(span), None)
            if usage is None:
                return
            sample = self._cached_sample()
            if self.degraded:
                # No real readings exist; an all-zero stamp would read
                # as "this stage used nothing", which is worse than no
                # column at all.
                return
            peak = max(usage.peak_rss, sample.rss_bytes)
            if not self._should_stamp(span):
                return
            if peak > 0:  # 0 = no RSS source on this platform
                span.attrs["peak_rss_bytes"] = peak
            span.attrs["cpu_seconds"] = round(
                max(sample.cpu_seconds - usage.cpu_at_open, 0.0), 6
            )
            span.attrs["gc_collections"] = max(
                sample.gc_collections - usage.gc_at_open, 0
            )

    def _should_stamp(self, span) -> bool:
        if span.parent_id is None or span.attrs.get("kind") == "stage":
            return True
        end = span.end if span.end is not None else span.start
        return (end - span.start) >= self.stamp_min_seconds

    # -- background thread ---------------------------------------------
    def start(self) -> "ResourceSampler":
        """Start the background sampling thread (idempotent).

        Probes the sample source once first; if that degrades the
        sampler (source raises), the thread is never started — the run
        proceeds unmonitored instead of spinning a thread that can
        only fail.
        """
        if self._thread is not None:
            return self
        self.sample_once()
        if self.degraded:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-monitor", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the thread and take one final sample."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=2.0)
        self._thread = None
        self.sample_once()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.sample_once()
            except Exception:  # pragma: no cover - never kill the host run
                return

    def __enter__(self) -> "ResourceSampler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """Run-level roll-up for reports and batch summaries."""
        last = self._last
        out = {
            "peak_rss_bytes": self.peak_rss_bytes,
            "cpu_seconds": round(last.cpu_seconds, 6) if last else None,
            "samples": self.samples_taken,
        }
        if self.degraded:
            out["degraded"] = True
        return out
