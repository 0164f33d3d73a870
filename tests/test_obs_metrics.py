"""Tests for repro.obs metrics/monitor/progress/flamegraph + bench history."""

import io
import json
from pathlib import Path

import pytest

from repro.obs import (
    MetricsRegistry,
    ResourceSampler,
    TraceError,
    TraceStream,
    Tracer,
    folded_stacks,
    prometheus_lines,
    read_trace,
    replay_metrics,
    validate_trace,
    write_flamegraph,
    write_trace,
)

RESULTS_DIR = Path(__file__).resolve().parents[1] / "benchmarks" / "results"


class FakeClock:
    """Deterministic clock: each call advances by ``step`` seconds."""

    def __init__(self, step=1.0):
        self.t = 0.0
        self.step = step

    def __call__(self):
        self.t += self.step
        return self.t


class ScriptedSamples:
    """sample_fn stub: returns scripted (rss, cpu, gc) tuples in order,
    repeating the last one when exhausted."""

    def __init__(self, samples):
        self.samples = list(samples)
        self.i = 0

    def __call__(self):
        s = self.samples[min(self.i, len(self.samples) - 1)]
        self.i += 1
        return s


class TestMetricsRegistry:
    def test_counter_accumulates_and_rejects_decrease(self):
        reg = MetricsRegistry()
        c = reg.counter("lac_rounds_total")
        c.inc()
        c.inc(3)
        assert reg.counter("lac_rounds_total") is c
        assert c.value == 4
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_labels_fan_out_into_series(self):
        reg = MetricsRegistry()
        reg.counter("probes", verdict="feasible").inc(2)
        reg.counter("probes", verdict="infeasible").inc()
        assert reg.counter("probes", verdict="feasible").value == 2
        assert reg.counter("probes", verdict="infeasible").value == 1
        assert len(reg.instruments) == 2

    def test_gauge_tracks_max(self):
        reg = MetricsRegistry()
        g = reg.gauge("rss")
        g.set(10)
        g.set(50)
        g.set(20)
        assert g.value == 20
        assert g.max_value == 50

    def test_histogram_buckets_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("t", buckets=(1.0, 10.0))
        for v in (0.5, 0.7, 5.0, 99.0):
            h.observe(v)
        assert h.cumulative() == [(1.0, 2), (10.0, 3), ("+Inf", 4)]
        assert h.count == 4
        assert h.sum == pytest.approx(105.2)

    def test_kind_conflict_is_an_error(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x")

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("bad name")
        with pytest.raises(ValueError):
            reg.counter("ok", **{"bad-label": 1})


def _streamed_run(path, metrics=None):
    """A synthetic traced run feeding several SPAN_METRICS rows, streamed
    to ``path`` as ``repro-trace/2`` (left open: no footer)."""
    tracer = Tracer(clock=FakeClock(), meta={"circuit": "toy"})
    if metrics is not None:
        tracer.add_listener(metrics)
    stream = TraceStream(path, tracer.meta)
    tracer.add_listener(stream)
    with tracer.span("plan"):
        for verdict in ("feasible", "infeasible", "feasible"):
            with tracer.span("feas/probe", verdict=verdict):
                pass
        for n_foa in (3, 1):
            with tracer.span("lac/round", n_foa=n_foa):
                pass
        with tracer.span("retime", kind="stage", status="ok") as stage:
            stage.event("attempt", status="failed", seconds=0.05)
            stage.event("attempt", status="ok", seconds=0.5)
    return tracer, stream


class TestMetricsRoundTrip:
    """The metrics round trip through a trace: replayed == live."""

    def test_round_trip_is_byte_identical(self, tmp_path):
        live = MetricsRegistry()
        _tracer, stream = _streamed_run(tmp_path / "t.jsonl", metrics=live)
        stream.close()
        replayed = replay_metrics(read_trace(tmp_path / "t.jsonl"))
        assert prometheus_lines(replayed) == prometheus_lines(live)
        assert len(live.instruments) == 7

    def test_document_lookup(self, tmp_path):
        _streamed_run(tmp_path / "t.jsonl")  # a run still in flight
        reg = replay_metrics(read_trace(tmp_path / "t.jsonl"))
        assert reg.counter("lac_rounds_total").value == 2
        assert reg.gauge("lac_n_foa").value == 1
        feasible = reg.counter("feas_probes_total", verdict="feasible")
        assert feasible.value == 2
        hist = reg.histogram("stage_seconds", stage="retime")
        assert hist.count == 2
        assert hist.cumulative()[-1] == ("+Inf", 2)

    def test_wrong_schema_rejected(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": "repro-metrics/1", "samples": 0}\n')
        with pytest.raises(TraceError, match="repro-trace/2"):
            read_trace(path)
        assert main(["trace", "metrics", str(path)]) == 2
        assert "repro-metrics/1" in capsys.readouterr().err


class TestPrometheus:
    def test_exposition_shape(self):
        reg = MetricsRegistry()
        reg.describe("rounds_total", "solver rounds")
        reg.counter("rounds_total").inc(3)
        reg.histogram("t", buckets=(1.0,), stage="lac").observe(0.5)
        text = "\n".join(prometheus_lines(reg))
        assert "# HELP rounds_total solver rounds" in text
        assert "# TYPE rounds_total counter" in text
        assert "rounds_total 3" in text
        assert 't_bucket{stage="lac",le="1"} 1' in text
        assert 't_bucket{stage="lac",le="+Inf"} 1' in text
        assert 't_count{stage="lac"} 1' in text


class TestResourceSampler:
    def test_span_attribution_on_synthetic_tree(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        sampler = ResourceSampler(
            interval=1e-6,  # every cached lookup is stale -> scripted order
            clock=clock,
            sample_fn=ScriptedSamples(
                [
                    (100, 1.0, 0),  # open root
                    (200, 2.0, 1),  # open stage
                    (150, 5.0, 3),  # close stage
                    (120, 6.0, 2),  # close root (gc went "backwards")
                ]
            ),
            stamp_min_seconds=10.0,  # short plain spans stay unstamped
        )
        tracer.add_listener(sampler)
        with tracer.span("root"):
            with tracer.span("stage", kind="stage"):
                pass
        root = next(s for s in tracer.spans if s.name == "root")
        stage = next(s for s in tracer.spans if s.name == "stage")
        # Stage: opened at rss 200, closed at 150 -> peak 200; cpu 5-2.
        assert stage.attrs["peak_rss_bytes"] == 200
        assert stage.attrs["cpu_seconds"] == pytest.approx(3.0)
        assert stage.attrs["gc_collections"] == 2
        # Root saw the 200 peak while open; negative gc delta clamps to 0.
        assert root.attrs["peak_rss_bytes"] == 200
        assert root.attrs["cpu_seconds"] == pytest.approx(5.0)
        assert root.attrs["gc_collections"] == 2
        assert sampler.peak_rss_bytes == 200

    def test_short_plain_spans_are_not_stamped(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        sampler = ResourceSampler(
            interval=1e-6,
            clock=clock,
            sample_fn=ScriptedSamples([(100, 1.0, 0)]),
            stamp_min_seconds=10.0,
        )
        tracer.add_listener(sampler)
        with tracer.span("root"):
            with tracer.span("probe"):  # 1s elapsed < 10s threshold
                pass
        probe = next(s for s in tracer.spans if s.name == "probe")
        root = next(s for s in tracer.spans if s.name == "root")
        assert "peak_rss_bytes" not in probe.attrs
        assert "peak_rss_bytes" in root.attrs  # roots always stamped

    def test_sample_once_updates_metrics_and_summary(self):
        reg = MetricsRegistry()
        sampler = ResourceSampler(
            clock=FakeClock(),
            sample_fn=ScriptedSamples([(100, 1.5, 2), (300, 2.5, 2)]),
            metrics=reg,
        )
        sampler.sample_once()
        sampler.sample_once()
        assert reg.gauge("process_rss_bytes").value == 300
        assert reg.gauge("process_rss_bytes").max_value == 300
        assert reg.counter("monitor_samples_total").value == 2
        summary = sampler.summary()
        assert summary["peak_rss_bytes"] == 300
        assert summary["cpu_seconds"] == pytest.approx(2.5)
        assert summary["samples"] == 2

    def test_cached_sample_avoids_resampling_within_half_interval(self):
        fn = ScriptedSamples([(100, 1.0, 0)])
        clock = FakeClock(step=0.0)
        clock.t = 1.0
        sampler = ResourceSampler(interval=100.0, clock=clock, sample_fn=fn)
        sampler.sample_once()
        tracer = Tracer(clock=clock)
        tracer.add_listener(sampler)
        with tracer.span("a"):
            pass
        # open + close both hit the cache: one underlying read total
        assert fn.i == 1

    def test_background_thread_takes_samples(self):
        import time

        sampler = ResourceSampler(interval=0.001)
        with sampler:
            time.sleep(0.05)
        assert sampler.samples_taken > 0
        assert sampler.peak_rss_bytes > 0

    def test_real_sources_return_plausible_values(self):
        from repro.obs.monitor import (
            read_cpu_seconds,
            read_gc_collections,
            read_rss_bytes,
        )

        assert read_rss_bytes() > 1024 * 1024  # >1 MiB for any CPython
        assert read_cpu_seconds() >= 0.0
        assert read_gc_collections() >= 0

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            ResourceSampler(interval=0.0)


class TestProgressStream:
    """The trace stream is the run's live progress record."""

    def _stream_run(self, path):
        tracer = Tracer(clock=FakeClock(), meta={"circuit": "toy"})
        stream = TraceStream(path, tracer.meta)
        tracer.add_listener(stream)
        with tracer.span("plan"):
            with tracer.span("stage", kind="stage"):
                pass
        stream.close()
        return path

    def test_event_stream_shape(self, tmp_path):
        text = self._stream_run(tmp_path / "t.jsonl").read_text()
        lines = [json.loads(l) for l in text.splitlines()]
        header = lines[0]
        assert header == {"schema": "repro-trace/2", "meta": {"circuit": "toy"}}
        types = [l.get("type") for l in lines[1:]]
        assert types == ["open", "open", "span", "span", "run_end"]
        assert lines[2]["attrs"] == {"kind": "stage"}
        assert lines[-1]["spans"] == 2

    def test_file_round_trip_validates(self, tmp_path):
        path = self._stream_run(tmp_path / "t.jsonl")
        doc = read_trace(path)
        assert validate_trace(path) == len(doc.spans) == 2
        assert doc.unfinished == []
        assert doc.meta == {"circuit": "toy"}

    def test_run_end_spans_field_is_optional(self, tmp_path):
        """A run still in flight has no footer yet: its file reads back
        line by line as it is written, open spans listed."""
        path = tmp_path / "t.jsonl"
        tracer = Tracer(clock=FakeClock())
        stream = TraceStream(path, {})
        tracer.add_listener(stream)
        with tracer.span("plan"):
            with tracer.span("stage"):
                pass
            doc = read_trace(path)
            assert [s.name for s in doc.spans] == ["stage"]
            assert [s.name for s in doc.unfinished] == ["plan"]
        stream.close()
        assert read_trace(path).unfinished == []

    def _write(self, tmp_path, lines):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            "\n".join(['{"schema": "repro-trace/2", "meta": {}}'] + lines) + "\n"
        )
        return path

    def test_rejects_close_of_unopened_span(self, tmp_path):
        path = self._write(
            tmp_path,
            ['{"type": "span", "id": 9, "parent": null, "name": "x",'
             ' "start": 1.0, "end": 2.0}'],
        )
        with pytest.raises(TraceError, match="not open"):
            read_trace(path)

    def test_rejects_events_after_run_end(self, tmp_path):
        path = self._write(
            tmp_path,
            ['{"type": "run_end", "spans": 0}',
             '{"type": "open", "id": 1, "parent": null, "name": "x",'
             ' "start": 1.0}'],
        )
        with pytest.raises(TraceError, match="after run_end"):
            read_trace(path)

    def test_human_renderer_depth_limits(self):
        from repro.obs import HumanProgress

        tracer = Tracer(clock=FakeClock())
        out = io.StringIO()
        tracer.add_listener(HumanProgress(out=out, max_depth=1))
        with tracer.span("plan"):
            with tracer.span("stage"):
                with tracer.span("deep"):
                    pass
        text = out.getvalue()
        assert "> plan" in text and "> stage" in text and "< plan" in text
        assert "deep" not in text


class TestFlamegraph:
    def test_folded_self_times(self, tmp_path):
        clock = FakeClock(step=0.0)
        tracer = Tracer(clock=lambda: clock.t)
        with tracer.span("outer"):
            clock.t = 1.0
            with tracer.span("child"):
                clock.t = 4.0
            clock.t = 10.0
        doc = read_trace(write_trace(tracer, tmp_path / "t.jsonl"))
        stacks = dict(
            (line.rsplit(" ", 1)[0], int(line.rsplit(" ", 1)[1]))
            for line in folded_stacks(doc)
        )
        assert stacks["outer"] == 7_000_000  # 10s total - 3s child
        assert stacks["outer;child"] == 3_000_000

    def test_write_flamegraph_merges_same_stacks(self, tmp_path):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("root"):
            for _ in range(3):
                with tracer.span("round"):
                    pass
        trace = write_trace(tracer, tmp_path / "t.jsonl")
        out = tmp_path / "t.folded"
        count = write_flamegraph(trace, out)
        lines = out.read_text().splitlines()
        assert count == len(lines)
        merged = [l for l in lines if l.startswith("root;round ")]
        assert len(merged) == 1  # three rounds folded into one stack


class TestBenchHistory:
    def _doc(self, wall, ok=True, mode="warm", quick=True):
        return {
            "schema": "repro-bench/4",
            "mode": mode,
            "quick": quick,
            "cache": None,
            "totals": {"wall_seconds": wall, "lac_seconds": 0.1},
            "circuits": [
                {"name": "s298", "ok": ok, "stages": [],
                 "error": None if ok else "PlanningError: boom"},
            ],
        }

    def test_checked_in_series_loads_clean(self):
        from repro.perf import history_report, load_history

        docs = load_history(RESULTS_DIR)
        assert [n for n, _ in docs] == sorted(n for n, _ in docs)
        assert len(docs) >= 5
        report, regressions = history_report(docs)
        text = "\n".join(report)
        assert "BENCH_0" in text and "wall" in text
        # Schema changes between checked-in runs make them
        # non-comparable or genuinely faster; nothing should flag.
        assert regressions == []

    def test_checked_in_series_exits_zero(self, capsys):
        from repro.__main__ import main

        assert main(["bench", "history", "--out", str(RESULTS_DIR)]) == 0
        assert "BENCH_0" in capsys.readouterr().out

    def test_wall_regression_flagged_between_comparable_runs(self):
        from repro.perf import history_report

        docs = [(0, self._doc(1.0)), (1, self._doc(2.0))]
        _, regressions = history_report(docs, threshold=0.25)
        assert any("wall regressed" in r for r in regressions)

    def test_incomparable_runs_not_flagged(self):
        from repro.perf import history_report

        docs = [(0, self._doc(1.0, mode="cold")), (1, self._doc(9.0))]
        _, regressions = history_report(docs)
        assert regressions == []

    def test_ok_to_fail_flagged(self):
        from repro.perf import history_report

        docs = [(0, self._doc(1.0)), (1, self._doc(1.0, ok=False))]
        _, regressions = history_report(docs)
        assert any("now fails" in r for r in regressions)

    def test_fail_on_regression_exit_code(self, tmp_path, capsys):
        from repro.__main__ import main

        history = ["bench", "history", "--out"]
        for n, doc in ((0, self._doc(1.0)), (1, self._doc(5.0))):
            (tmp_path / f"BENCH_{n}.json").write_text(json.dumps(doc))
        assert main([*history, str(tmp_path)]) == 0
        assert main([*history, str(tmp_path), "--fail-on-regression"]) == 1
        assert main([*history, str(tmp_path / "nope")]) == 2
        assert "no such directory" in capsys.readouterr().err


class TestInstrumentedPlanner:
    """Acceptance: full telemetry on a real (tiny) planner run."""

    @pytest.fixture(scope="class")
    def paths(self, tmp_path_factory):
        from repro.core import RunContext
        from repro.core.planner import plan_interconnect
        from repro.netlist import s27_graph

        from repro.obs import HumanProgress

        base = tmp_path_factory.mktemp("obs")
        p = {"trace": base / "s27.trace.jsonl", "progress": io.StringIO()}
        ctx = RunContext(
            trace_path=str(p["trace"]),
            progress=HumanProgress(out=p["progress"]),
        )
        outcome = plan_interconnect(
            s27_graph(),
            ctx=ctx,
            seed=1,
            whitespace=0.4,
            max_iterations=1,
            floorplan_iterations=60,
        )
        p["outcome"] = outcome
        return p

    def test_one_trace_and_its_views(self, paths):
        doc = read_trace(paths["trace"])
        assert doc.schema == "repro-trace/2" and doc.unfinished == []
        assert validate_trace(paths["trace"]) == len(doc.spans) > 0
        assert "# TYPE" in "\n".join(prometheus_lines(replay_metrics(doc)))
        assert "< plan" in paths["progress"].getvalue()
        assert not list(paths["trace"].parent.glob("s27.[!t]*"))

    def test_solver_metrics_recorded(self, paths):
        reg = replay_metrics(read_trace(paths["trace"]))
        names = {inst.name for inst in reg.instruments}
        assert reg.counter("lac_rounds_total").value >= 1
        assert {"feas_probes_total", "stage_seconds", "anneal_moves_total"} <= names

    def test_monitor_stamps_root_and_wall_start(self, paths):
        tdoc = read_trace(paths["trace"])
        (root,) = tdoc.roots()
        assert root.attrs.get("peak_rss_bytes", 0) > 0
        assert root.attrs.get("cpu_seconds") is not None
        assert isinstance(tdoc.meta.get("wall_start"), float)

    def test_summarize_gains_resource_columns(self, paths):
        from repro.obs.summarize import summarize

        text = summarize(read_trace(paths["trace"]))
        assert "peak rss" in text
        assert "cpu" in text

    def test_results_identical_without_instrumentation(self, paths):
        from repro.core.planner import plan_interconnect
        from repro.netlist import s27_graph

        plain = plan_interconnect(
            s27_graph(),
            seed=1,
            whitespace=0.4,
            max_iterations=1,
            floorplan_iterations=60,
        )
        inst = paths["outcome"]
        assert plain.converged == inst.converged
        assert plain.first.t_clk == inst.first.t_clk
        assert plain.first.min_area.report.n_foa == inst.first.min_area.report.n_foa
        assert plain.first.lac.report.n_foa == inst.first.lac.report.n_foa
        assert plain.first.lac.n_wr == inst.first.lac.n_wr


class TestTable1Telemetry:
    def test_trace_dir_writes_per_circuit_artifacts_and_summary(self, tmp_path):
        from repro.experiments.circuits import get_circuit
        from repro.experiments.table1 import run_table1_resilient

        trace_dir = tmp_path / "batch"
        batch = run_table1_resilient(
            [get_circuit("s298")],
            max_iterations=1,
            plan_overrides={"floorplan_iterations": 200},
            trace_dir=str(trace_dir),
        )
        assert batch.items[0].ok
        assert validate_trace(trace_dir / "s298.trace.jsonl") > 0
        assert sorted(p.name for p in trace_dir.iterdir()) == [
            "batch_summary.json", "s298.trace.jsonl",
        ]
        summary = json.loads((trace_dir / "batch_summary.json").read_text())
        assert summary["schema"] == "repro-batch-summary/1"
        assert summary["n_ok"] == 1
        (entry,) = summary["circuits"]
        assert entry["name"] == "s298"
        assert entry["wall_seconds"] > 0
        assert entry["peak_rss_bytes"] > 0

    def test_progress_requires_serial_run(self):
        from repro.experiments.table1 import run_table1_resilient

        with pytest.raises(ValueError, match="serial"):
            run_table1_resilient([], jobs=2, progress=object())


class TestCLIObs:
    def test_trace_validate_dispatches_on_schema(self, tmp_path, capsys):
        from repro.__main__ import main

        tracer = Tracer(clock=FakeClock())
        stream = TraceStream(tmp_path / "t2.jsonl", {})
        tracer.add_listener(stream)
        with tracer.span("a"):
            pass
        stream.close()
        assert main(["trace", "validate", str(tmp_path / "t2.jsonl")]) == 0
        assert "valid repro-trace/2, 1 spans" in capsys.readouterr().out

        write_trace(tracer, tmp_path / "t1.jsonl")
        assert main(["trace", "validate", str(tmp_path / "t1.jsonl")]) == 0
        assert "valid repro-trace/1, 1 spans" in capsys.readouterr().out

        epath = tmp_path / "e.jsonl"
        epath.write_text('{"schema": "repro-events/1", "meta": {}}\n')
        assert main(["trace", "validate", str(epath)]) == 2
        assert "repro-events/1" in capsys.readouterr().err

    def test_trace_flamegraph_command(self, tmp_path, capsys):
        from repro.__main__ import main

        tracer = Tracer(clock=FakeClock())
        with tracer.span("root"):
            with tracer.span("leaf"):
                pass
        trace = write_trace(tracer, tmp_path / "t.jsonl")
        out = tmp_path / "t.folded"
        assert main(["trace", "flamegraph", str(trace), "--out", str(out)]) == 0
        assert "folded stacks" in capsys.readouterr().out
        assert "root;leaf " in out.read_text()

    def test_bench_history_command(self, capsys):
        from repro.__main__ import main

        assert main(["bench", "history", "--out", str(RESULTS_DIR)]) == 0
        assert "BENCH_0" in capsys.readouterr().out
