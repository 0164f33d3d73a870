"""Outside-in layer timing for the benchmark's traced pass.

For one pass, :func:`traced` swaps the public functions that
``repro.core.planner`` calls for wrappers that record one span per
call: name, start, end, parent and a few attributes read off the
result. The swapped names are restored in a ``finally`` block, so the
planner leaves the pass exactly as it entered it. A name the planner no
longer has fails the pass loudly: a refactor cannot silently hide a
stage from the benchmark.

Span names follow the program's own ``repro-trace/1`` spans (the stage
names, ``route/global``, ``retime/lac`` ...), so :func:`layer_metrics`
aggregates the harness's spans and the per-job traces the serve worker
writes with one table.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List

#: ``repro.core.planner`` global -> span name for its calls.
PLANNER_CALLS = {
    "partition_graph": "partition",
    "build_floorplan": "floorplan",
    "expand_floorplan": "expand_floorplan",
    "build_tile_grid": "tiles",
    "nets_from_graph": "route/nets",
    "buffer_routed_nets": "repeater",
    "expand_interconnects": "expand",
    "min_period_retiming": "min_period",
    "build_constraint_system": "retime/constraints",
    "min_area_retiming": "retime/min_area",
    "area_report": "retime/area_report",
    "lac_retiming": "retime/lac",
    "find_relaxed_period": "retime/relax",
}

#: Least share of plan time the top-level layer spans must cover.
COVERAGE_FLOOR = 0.90

#: Layer -> the span names whose durations make up its busy time.
LAYERS = {
    "partition": ("partition",),
    "floorplan": ("floorplan", "expand_floorplan"),
    "route": ("route/global",),
    "repeater": ("repeater",),
    "expand": ("expand",),
    "compile": ("compile",),
    "min_period": ("min_period",),
    "constraints": ("retime/constraints",),
    "min_area": ("retime/min_area",),
    "lac": ("retime/lac",),
}


def _constraints_attrs(attrs: dict, system) -> None:
    attrs["n_constraints"] = len(system.constraints)


def _lac_attrs(attrs: dict, result) -> None:
    attrs["n_wr"] = result.n_wr
    attrs["round_seconds"] = list(result.round_seconds)


def _compile_attrs(attrs: dict, value) -> None:
    _artifact, hit = value
    attrs["cache"] = "hit" if hit else "miss"


_ANNOTATE = {
    "retime/constraints": _constraints_attrs,
    "retime/lac": _lac_attrs,
}


class SpanRecorder:
    """In-memory spans: ``{"id", "parent", "name", "start", "end", "attrs"}``.

    Times are seconds since the recorder was created. The dicts have
    the shape of ``repro-trace/1`` span lines.
    """

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.spans) + 1,
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter() - self._t0,
            "end": None,
            "attrs": dict(attrs),
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record["attrs"]
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter() - self._t0

    def wrap(self, name: str, fn: Callable, annotate=None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    annotate(attrs, result)
                return result

        return wrapper


def _timed_router(recorder: SpanRecorder, base: type) -> type:
    class TimedRouter(base):
        def route(self, *args, **kwargs):
            with recorder.span("route/global") as attrs:
                routed = super().route(*args, **kwargs)
                attrs.update(self.congestion_summary())
                return routed

    return TimedRouter


def wrap_cache(recorder: SpanRecorder, cache) -> None:
    """Time ``cache``'s compile calls (instance attributes shadow the methods)."""
    cache.get_or_compile = recorder.wrap(
        "compile", cache.get_or_compile, _compile_attrs
    )
    cache.save = recorder.wrap("compile", cache.save)


@contextlib.contextmanager
def traced(recorder: SpanRecorder):
    """Swap the planner's layer calls for timing wrappers, then restore them."""
    from repro.core import planner

    names = (*PLANNER_CALLS, "GlobalRouter")
    missing = [name for name in names if not hasattr(planner, name)]
    if missing:
        raise RuntimeError(
            f"repro.core.planner no longer has {', '.join(missing)}; "
            "update benchmarks/suite/layers.py so no stage goes untimed"
        )
    saved = {name: getattr(planner, name) for name in names}
    try:
        for name, span_name in PLANNER_CALLS.items():
            setattr(
                planner,
                name,
                recorder.wrap(span_name, saved[name], _ANNOTATE.get(span_name)),
            )
        planner.GlobalRouter = _timed_router(recorder, saved["GlobalRouter"])
        yield
    finally:
        for name, fn in saved.items():
            setattr(planner, name, fn)


def duration(span: dict) -> float:
    """A span's wall time, in seconds."""
    return span["end"] - span["start"]


def layer_metrics(
    spans: Iterable[dict], units: int, is_top: Callable[[dict], bool]
) -> Dict[str, float]:
    """Per-layer metrics from spans, per unit of work (a pass or a job).

    ``is_top`` picks the spans that partition a plan's wall time: the
    harness's wrapper spans directly under a ``plan`` span, or the
    program's stage spans in a worker trace. Coverage is their summed
    time over the summed ``plan`` time; ``planner.self_s`` is the rest.
    """
    spans = list(spans)
    by_name: Dict[str, List[dict]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def busy(names) -> float:
        return sum(duration(s) for n in names for s in by_name[n])

    out: Dict[str, float] = {
        f"{layer}.busy_s": busy(names) / units for layer, names in LAYERS.items()
    }
    plan_s = busy(("plan",))
    top_s = sum(duration(s) for s in spans if is_top(s))
    out["planner.self_s"] = (plan_s - top_s) / units
    out["bench.coverage"] = top_s / plan_s
    if out["bench.coverage"] < COVERAGE_FLOOR:
        raise RuntimeError(
            f"layer spans cover {out['bench.coverage']:.1%} of plan time, below "
            f"{COVERAGE_FLOOR:.0%}: a stage runs outside every wrapped call"
        )
    lookups = [s["attrs"]["cache"] for s in by_name["compile"] if "cache" in s["attrs"]]
    out["compile.hit_ratio"] = lookups.count("hit") / len(lookups)
    out["constraints.n_constraints"] = (
        sum(s["attrs"]["n_constraints"] for s in by_name["retime/constraints"]) / units
    )
    lac = by_name["retime/lac"]
    out["lac.rounds"] = sum(s["attrs"]["n_wr"] for s in lac) / units
    rounds = [duration(s) for s in by_name["lac/round"]] or [
        r for s in lac for r in s["attrs"]["round_seconds"]
    ]
    out["lac.round_s.p50"] = statistics.median(rounds)
    out["lac.to_min_area_ratio"] = out["lac.busy_s"] / out["min_area.busy_s"]
    out["route.overflowed_cells"] = (
        sum(s["attrs"]["overflowed_cells"] for s in by_name["route/global"]) / units
    )
    out["resilience.retries"] = (
        sum(s["attrs"]["retries"] for s in by_name["plan"]) / units
    )
    return out
