"""Stage-level wall-clock accounting.

Timing has **one source of truth**: the span tracer
(:mod:`repro.obs`). The planner runs every resilient stage inside a
span, and :meth:`PerfRecorder.ingest_spans` collapses those spans into
the flat name -> seconds table the bench JSON embeds; ``python -m
repro trace summarize`` derives its stage table from the same spans,
so the two always agree.
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional


#: Span names (see the taxonomy in docs/api.md) that map to the
#: retiming sub-timing rows of the stage table. They are nested inside
#: the ``retime`` stage span, hence the "/" namespace that keeps
#: :attr:`PerfRecorder.total_seconds` from counting them twice.
_RETIME_SUB_SPANS = {
    "retime/constraints",
    "retime/min_area",
    "retime/lac",
}


@dataclasses.dataclass
class StageTiming:
    """Accumulated wall time — and, when the resource monitor ran,
    peak RSS and CPU time — for one named stage.

    The resource fields stay ``None`` on unmonitored runs and are then
    omitted from :meth:`to_dict`, so bench documents written without
    the monitor are unchanged byte for byte.
    """

    name: str
    seconds: float = 0.0
    calls: int = 0
    peak_rss_bytes: Optional[int] = None
    cpu_seconds: Optional[float] = None

    def to_dict(self) -> Dict[str, object]:
        d: Dict[str, object] = {
            "name": self.name,
            "seconds": round(self.seconds, 6),
            "calls": self.calls,
        }
        if self.peak_rss_bytes is not None:
            d["peak_rss_bytes"] = self.peak_rss_bytes
        if self.cpu_seconds is not None:
            d["cpu_seconds"] = round(self.cpu_seconds, 6)
        return d


class PerfRecorder:
    """Accumulates named stage timings, preserving first-seen order."""

    def __init__(self) -> None:
        self._stages: Dict[str, StageTiming] = {}

    def add(
        self,
        name: str,
        seconds: float,
        peak_rss_bytes: Optional[int] = None,
        cpu_seconds: Optional[float] = None,
    ) -> None:
        timing = self._stages.get(name)
        if timing is None:
            timing = self._stages[name] = StageTiming(name)
        timing.seconds += seconds
        timing.calls += 1
        if peak_rss_bytes is not None:
            # Peak, not sum: the stage's high-water mark across calls.
            timing.peak_rss_bytes = max(
                timing.peak_rss_bytes or 0, peak_rss_bytes
            )
        if cpu_seconds is not None:
            timing.cpu_seconds = (timing.cpu_seconds or 0.0) + cpu_seconds

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time a block of code under ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start)

    # ------------------------------------------------------------------
    def ingest_spans(self, spans: Iterable) -> None:
        """Build the stage table from trace spans (live or re-read).

        Accepts anything span-shaped (``name``/``attrs``/``elapsed``):
        :class:`repro.obs.Span` objects straight off a tracer or
        :class:`repro.obs.export.SpanRecord` objects from a trace file.
        Each planner stage span (``kind == "stage"``) contributes one
        call under its scope-qualified ledger name; the retiming
        sub-spans and LAC round spans land under their nested
        ``retime/...`` names. Other spans (``plan``, ``iteration``,
        convergence detail) are structural and not stage time.
        """
        for span in spans:
            attrs = span.attrs
            rss = attrs.get("peak_rss_bytes")
            cpu = attrs.get("cpu_seconds")
            if attrs.get("kind") == "stage":
                scope = attrs.get("scope") or ""
                name = f"{scope} · {span.name}" if scope else span.name
                self.add(name, span.elapsed, rss, cpu)
            elif span.name in _RETIME_SUB_SPANS:
                self.add(span.name, span.elapsed, rss, cpu)
            elif span.name == "lac/round":
                self.add("retime/lac/rounds", span.elapsed, rss, cpu)

    # ------------------------------------------------------------------
    @property
    def stages(self) -> List[StageTiming]:
        return list(self._stages.values())

    @property
    def total_seconds(self) -> float:
        # Nested timings ("retime/...") are views into their parent
        # stage, not extra wall time.
        return sum(
            t.seconds for t in self._stages.values() if "/" not in t.name
        )

    @property
    def peak_rss_bytes(self) -> Optional[int]:
        """Run-level RSS high-water mark, or None on unmonitored runs."""
        peaks = [
            t.peak_rss_bytes
            for t in self._stages.values()
            if t.peak_rss_bytes is not None
        ]
        return max(peaks) if peaks else None

    def to_dict(self) -> Dict[str, object]:
        d: Dict[str, object] = {
            "stages": [t.to_dict() for t in self._stages.values()],
            "total_seconds": round(self.total_seconds, 6),
        }
        if self.peak_rss_bytes is not None:
            d["peak_rss_bytes"] = self.peak_rss_bytes
        return d
