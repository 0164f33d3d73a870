"""The run ledger and the planner metrics are views of the span tree.

A plan records each stage try once, as an ``attempt`` event on its
stage span; the ledger (live or rebuilt from a trace file) and every
planner metric are read back from the spans.
"""

import json

import pytest

from repro.core import plan_interconnect
from repro.errors import FloorplanError, RoutingError
from repro.experiments.circuits import load_circuit, run_settings
from repro.netlist import s27_graph
from repro.obs import (
    MetricsRegistry,
    Tracer,
    prometheus_lines,
    read_trace,
    replay_metrics,
)
from repro.obs.metrics import SPAN_METRICS, STAGE
from repro.resilience import (
    FaultInjector,
    FaultSpec,
    ResilienceConfig,
    RunLedger,
    StageRunner,
)

QUICK = dict(seed=1, whitespace=0.4, max_iterations=1, floorplan_iterations=60)


def _records(ledger: RunLedger):
    return [
        (
            r.stage,
            r.scope,
            r.status,
            [(a.variant, a.attempt, a.status, a.error) for a in r.attempts],
        )
        for r in ledger.records
    ]


class TestLedgerFromTrace:
    def test_trace_file_rebuilds_the_outcome_ledger(self, tmp_path):
        """A retried floorplan and a retried route survive the round
        trip through ``repro-trace/1``, attempt by attempt."""
        faults = FaultInjector(
            [
                FaultSpec("floorplan", error=FloorplanError("injected"), on_call=1),
                FaultSpec("route", error=RoutingError("injected"), on_call=1),
            ]
        )
        path = tmp_path / "t.jsonl"
        outcome = plan_interconnect(
            s27_graph(), faults=faults, trace_path=str(path), **QUICK
        )
        assert outcome.ledger.n_retries == 2
        rebuilt = RunLedger.from_spans(read_trace(path).spans)
        assert _records(rebuilt) == _records(outcome.ledger)
        assert rebuilt.notes == outcome.ledger.notes
        assert rebuilt.format() == outcome.ledger.format()

    def test_notes_are_events_in_time_order(self, tmp_path):
        from repro.obs import write_trace

        tracer = Tracer()
        runner = StageRunner(ResilienceConfig(), tracer=tracer)
        runner.note("before any stage")

        def stage(_a):
            runner.note("inside the stage")
            return 1

        runner.scope = "iteration 1"
        runner.run("s", stage)
        notes = ["before any stage", "iteration 1 · inside the stage"]
        assert runner.ledger.notes == notes
        write_trace(tracer, tmp_path / "t.jsonl")
        rebuilt = RunLedger.from_spans(read_trace(tmp_path / "t.jsonl").spans)
        assert rebuilt.notes == notes
        assert _records(rebuilt) == _records(runner.ledger)

    def test_summarize_prints_the_ledger(self, tmp_path):
        from repro.obs.summarize import summarize

        faults = FaultInjector.fail_once("route")
        path = tmp_path / "t.jsonl"
        outcome = plan_interconnect(
            s27_graph(), faults=faults, trace_path=str(path), **QUICK
        )
        text = summarize(read_trace(path))
        assert outcome.ledger.format() in text
        assert "resilience: " in text and "route: ok" in text


def _feas(verdict):
    return (("verdict", verdict),)


#: Every planner metric of a traced ``plan s298 --quick`` (counter and
#: gauge values, histogram counts), captured before the metrics were
#: derived from spans: the derivation must reproduce them exactly.
S298_QUICK_SAMPLES = sorted([
    ("counter", "anneal_accepts_total", (), 133),
    ("counter", "anneal_moves_total", (), 300),
    ("counter", "compile_cache_total", (("result", "miss"),), 1),
    ("counter", "feas_probes_total", _feas("feasible"), 3),
    ("counter", "feas_probes_total", _feas("infeasible"), 11),
    ("counter", "fm_passes_total", (), 18),
    ("counter", "lac_rounds_total", (), 1),
    ("counter", "route_nets_total", (), 22),
    ("counter", "route_ripup_total", (), 12),
    ("gauge", "compile_candidates", (), 14585),
    ("gauge", "fm_final_cut", (), 3),
    ("gauge", "lac_n_foa", (), 0),
    ("gauge", "route_overflowed_cells", (), 0),
] + [
    ("counter", "stage_attempts_total", (("stage", s), ("status", "ok")), 1)
    for s in ("compile", "expand", "floorplan", "min_period", "partition",
              "repeater", "retime", "route", "tiles")
] + [
    ("histogram", "stage_seconds", (("stage", s),), 1)
    for s in ("compile", "expand", "floorplan", "min_period", "partition",
              "repeater", "retime", "route", "tiles")
])

#: The same run's span open/close sequence, as its former
#: ``repro-events/1`` stream recorded it, one letter per event:
#: span_open, span_close, metrics (a snapshot after each stage close,
#: which the trace stream does not repeat), run_end. Since then the
#: min-period search has become one ``feas/witness`` build followed by
#: its ``feas/probe`` spans, all directly under the search (the run of
#: ``oc`` pairs inside the ``min_period`` stage), and the retime stage
#: has built its solver in a ``retime/solver`` span (the ``oc`` after
#: ``retime/constraints``).
S298_QUICK_EVENTS = (
    "ooococococcmooccmoocmooccmocmocmocmooocococococococococococococococ"
    "ccmoocococoocccmcce"
)


@pytest.fixture(scope="module")
def s298_quick(tmp_path_factory):
    graph, kwargs = load_circuit("s298")
    iterations, overrides = run_settings(quick=True)
    metrics, tracer = MetricsRegistry(), Tracer()
    path = tmp_path_factory.mktemp("s298") / "s298.trace.jsonl"
    plan_interconnect(
        graph,
        max_iterations=iterations,
        tracer=tracer,
        metrics=metrics,
        trace_path=str(path),
        **kwargs,
        **overrides,
    )
    return metrics, tracer, path


class TestDerivedMetrics:
    def test_samples_match_the_call_site_counts(self, s298_quick):
        metrics, _, _ = s298_quick
        got = sorted(
            (
                inst.kind,
                inst.name,
                inst.labels,
                inst.count if inst.kind == "histogram" else inst.value,
            )
            for inst in metrics.instruments
            if not inst.name.startswith(("process_", "monitor_"))
        )
        assert got == S298_QUICK_SAMPLES

    def test_progress_event_sequence_unchanged(self, s298_quick):
        _, _, path = s298_quick
        letters = {"open": "o", "span": "c", "run_end": "e"}
        lines = path.read_text().splitlines()[1:]
        assert "".join(letters[json.loads(line)["type"]] for line in lines) == (
            S298_QUICK_EVENTS.replace("m", "")
        )

    def test_replayed_metrics_equal_the_live_registry(self, s298_quick):
        """The trace alone rebuilds every span-derived metric: the
        Prometheus text of the replay equals the live registry's for
        every :data:`SPAN_METRICS` instrument."""
        metrics, _, path = s298_quick
        derived = {row.metric for rows in SPAN_METRICS.values() for row in rows}

        def span_metric_text(registry):
            view = MetricsRegistry()
            view._metrics = {
                key: inst
                for key, inst in registry._metrics.items()
                if inst.name in derived
            }
            return prometheus_lines(view)

        replayed = replay_metrics(read_trace(path))
        assert {inst.name for inst in replayed.instruments} <= derived
        assert span_metric_text(replayed) == span_metric_text(metrics)
        assert len(span_metric_text(metrics)) > 100

    def test_counts_equal_the_spans_they_view(self, s298_quick):
        metrics, tracer, _ = s298_quick
        rounds = [s for s in tracer.spans if s.name == "lac/round"]
        assert metrics.counter("lac_rounds_total").value == len(rounds)
        attempts = sum(
            1 for s in tracer.spans for name, _t, _a in s.events if name == "attempt"
        )
        total = sum(
            i.value for i in metrics.instruments if i.name == "stage_attempts_total"
        )
        assert total == attempts

    def test_every_row_names_a_span_the_planner_opens(self, s298_quick):
        _, tracer, _ = s298_quick
        names = {s.name for s in tracer.spans}
        assert set(SPAN_METRICS) - names == {STAGE}


class TestSolverSpan:
    def test_solver_is_built_inside_its_span(self, monkeypatch):
        # The lazy HiGHS import, the feasibility Bellman–Ford and the
        # model load all run in the constructor: under retime/solver,
        # not in the retime stage's self time.
        from repro.retime.incremental import IncrementalMinArea

        tracer = Tracer()
        seen = []
        real = IncrementalMinArea.__init__

        def init(self, *args, **kwargs):
            seen.append(tracer.current.name)
            real(self, *args, **kwargs)

        monkeypatch.setattr(IncrementalMinArea, "__init__", init)
        outcome = plan_interconnect(s27_graph(), tracer=tracer, **QUICK)
        assert seen == ["retime/solver"] * len(outcome.iterations)
        by_id = {s.span_id: s for s in tracer.spans}
        solver = [s for s in tracer.spans if s.name == "retime/solver"]
        assert len(solver) == len(seen)
        for span in solver:
            stage = by_id[span.parent_id]
            assert (stage.name, stage.attrs["kind"]) == ("retime", "stage")
            assert span.attrs["engine"] in ("highs", "linprog")
            assert 0 <= span.attrs["build_seconds"] <= span.elapsed


class TestRegistryListener:
    def test_resumed_stage_counts_no_compile_lookup(self):
        tracer, metrics = Tracer(), MetricsRegistry()
        tracer.add_listener(metrics)
        with tracer.span("compile", kind="stage") as span:
            span.set(status="ok", resumed=True)
            span.event("attempt", variant="resumed", index=1, status="ok", seconds=0.0)
        assert prometheus_lines(metrics) == [
            "# TYPE stage_attempts_total counter",
            'stage_attempts_total{stage="compile",status="ok"} 1',
            "# TYPE stage_seconds histogram",
            *(
                f'stage_seconds_bucket{{stage="compile",le="{le}"}} 1'
                for le in ("0.001", "0.005", "0.01", "0.05", "0.1", "0.5",
                           "1", "5", "10", "50", "+Inf")
            ),
            'stage_seconds_sum{stage="compile"} 0',
            'stage_seconds_count{stage="compile"} 1',
        ]

    def test_detached_registry_stops_counting(self):
        tracer, metrics = Tracer(), MetricsRegistry()
        tracer.add_listener(metrics)
        with tracer.span("lac/round", n_foa=2):
            pass
        tracer.remove_listener(metrics)
        with tracer.span("lac/round", n_foa=1):
            pass
        assert metrics.counter("lac_rounds_total").value == 1
        assert metrics.gauge("lac_n_foa").value == 2
