"""Tests for RunContext: the plumbing of one plan, set up and torn down."""

import dataclasses
import inspect
import json
import threading

import pytest

from repro.core import PlannerConfig, RunContext, plan_interconnect
from repro.errors import CheckpointError, ReproError, TelemetryError
from repro.netlist import s27_graph
from repro.obs import NOOP_TRACER, MetricsRegistry, Tracer, read_trace
from repro.obs.summarize import summarize
from repro.perf import PerfRecorder
from repro.resilience import CheckpointManager

#: Cheap s27 settings shared by every plan here.
QUICK = dict(seed=1, whitespace=0.4, max_iterations=1, floorplan_iterations=60)


def _monitor_threads():
    return {t for t in threading.enumerate() if t.name == "repro-monitor"}


class TestSignature:
    def test_named_parameters(self):
        params = inspect.signature(plan_interconnect).parameters
        named = [p for p, v in params.items() if v.kind != v.VAR_KEYWORD]
        assert named == ["graph", "config", "ctx", "max_iterations", "verify"]

    def test_config_holds_only_the_flows_knobs(self):
        names = {f.name for f in dataclasses.fields(PlannerConfig)}
        assert len(names) == 14
        assert not names & {f.name for f in dataclasses.fields(RunContext)}
        assert len(dataclasses.fields(RunContext)) <= 9


class TestOverrides:
    def test_unknown_keyword_raises_type_error(self):
        with pytest.raises(TypeError, match="monitor_interval"):
            plan_interconnect(s27_graph(), monitor_interval=0.01, **QUICK)

    def test_keywords_reach_config_and_context(self):
        perf = PerfRecorder()
        ctx = RunContext(perf=PerfRecorder())
        outcome = plan_interconnect(
            s27_graph(), ctx=ctx, perf=perf, alpha=0.3, **QUICK
        )
        assert outcome.config.alpha == 0.3
        assert perf.stages  # the override replaced the context's recorder
        assert not ctx.perf.stages  # ... and never mutated the caller's


class TestSession:
    def test_uninstrumented_run_records_into_a_quiet_tracer(self):
        """Every plan gets a real tracer (its ledger reads the spans);
        without sinks nothing listens to it and no monitor runs."""
        before = _monitor_threads()
        for ctx in (RunContext(), RunContext(tracer=NOOP_TRACER)):
            assert not ctx.instrumented
            with ctx.session(s27_graph(), PlannerConfig(), 1) as run:
                assert isinstance(run.tracer, Tracer)
                assert run.tracer._listeners == []
                assert _monitor_threads() <= before
                assert run.compile_cache is not None

    def test_registry_does_not_leak_into_later_plans(self):
        """A registry given to one plan stops counting when it ends,
        even when the next plan reuses the same tracer."""
        tracer, first = Tracer(), MetricsRegistry()
        plan_interconnect(s27_graph(), tracer=tracer, metrics=first, **QUICK)
        rounds = first.counter("lac_rounds_total").value
        assert rounds >= 1
        plan_interconnect(s27_graph(), tracer=tracer, **QUICK)
        assert first.counter("lac_rounds_total").value == rounds
        assert tracer._listeners == []

    def test_views_see_only_their_own_runs_spans(self):
        """Two plans on one tracer: each run's perf table, ledger and
        metrics hold its own stages once, not the earlier run's too."""
        tracer = Tracer()
        views = []
        for _ in range(2):
            perf, metrics = PerfRecorder(), MetricsRegistry()
            outcome = plan_interconnect(
                s27_graph(), tracer=tracer, perf=perf, metrics=metrics, **QUICK
            )
            views.append((perf, metrics, outcome.ledger))
        for perf, metrics, ledger in views:
            calls = {t.name: t.calls for t in perf.stages}
            assert calls["partition"] == 1
            assert [r.stage for r in ledger.for_stage("partition")] == ["partition"]
            attempts = metrics.counter(
                "stage_attempts_total", stage="partition", status="ok"
            )
            assert attempts.value == 1
        assert len(views[0][2].records) == len(views[1][2].records)

    def test_trace_file_holds_only_its_runs_spans(self, tmp_path):
        """Two plans on one tracer, only the second writing a trace:
        the file holds that run's spans alone, so ``trace summarize``
        counts the outcome's stage runs, not both runs'."""
        tracer = Tracer()
        plan_interconnect(s27_graph(), tracer=tracer, **QUICK)
        path = tmp_path / "t.jsonl"
        outcome = plan_interconnect(
            s27_graph(), tracer=tracer, trace_path=str(path), **QUICK
        )
        doc = read_trace(path)
        footer = json.loads(path.read_text().splitlines()[-1])
        assert footer["spans"] == len(doc.spans) < len(tracer.spans)
        assert [s.name for s in doc.roots()] == ["plan"]
        runs = len(outcome.ledger.records)
        assert runs == 9
        assert f"resilience: {runs} stage runs," in summarize(doc)

    def test_bad_trace_parent_leaks_no_monitor_thread(self, tmp_path):
        """A trace path whose parent is a regular file fails before the
        monitor starts, naming the path."""
        blocker = tmp_path / "file"
        blocker.write_text("")
        before = _monitor_threads()
        bad = str(blocker / "t.jsonl")
        with pytest.raises(TelemetryError, match="t.jsonl") as info:
            plan_interconnect(s27_graph(), trace_path=bad, **QUICK)
        assert isinstance(info.value, ReproError)
        assert _monitor_threads() <= before

    def test_failed_checkpoint_bind_unwinds_setup(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        trace = tmp_path / "t.jsonl"
        tracer = Tracer()
        before = _monitor_threads()
        ctx = RunContext(
            tracer=tracer,
            trace_path=str(trace),
            checkpoint=CheckpointManager(blocker / "ck"),
        )
        with pytest.raises(CheckpointError):
            plan_interconnect(s27_graph(), ctx=ctx, **QUICK)
        assert _monitor_threads() <= before
        assert tracer._listeners == []
        # The trace was closed with its footer.
        last = json.loads(trace.read_text().splitlines()[-1])
        assert last == {"type": "run_end", "spans": 0}

    def test_sinks_written_when_the_plan_fails(self, tmp_path, monkeypatch):
        import repro.core.planner as planner
        from repro.errors import PlanningError

        def _boom(*_a, **_k):
            raise PlanningError("synthetic")

        monkeypatch.setattr(planner, "_plan_stages", _boom)
        before = _monitor_threads()
        trace = tmp_path / "t.jsonl"
        with pytest.raises(PlanningError):
            plan_interconnect(s27_graph(), trace_path=str(trace), **QUICK)
        assert _monitor_threads() <= before
        doc = read_trace(trace)
        assert doc.unfinished == []
        assert [s.name for s in doc.roots()] == ["plan"]
        assert "PlanningError" in doc.roots()[0].attrs["error"]

    def test_failed_write_keeps_the_runs_own_error(self, tmp_path, monkeypatch):
        """An interrupt stays an interrupt (resumable, exit 4) when the
        trace cannot be written on the way out."""
        import repro.core.planner as planner
        from repro.errors import InterruptedRunError

        trace = tmp_path / "t.jsonl"

        def _full(*_a, **_k):
            raise OSError(28, "No space left on device")

        def _interrupted(*_a, **_k):
            raise InterruptedRunError(message="synthetic drain")

        monkeypatch.setattr("repro.obs.export.os.fsync", _full)
        monkeypatch.setattr(planner, "_plan_stages", _interrupted)
        with pytest.raises(InterruptedRunError, match="synthetic drain"):
            plan_interconnect(s27_graph(), trace_path=str(trace), **QUICK)

    def test_failed_write_after_a_clean_run_raises(self, tmp_path, monkeypatch):
        def _full(*_a, **_k):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("repro.obs.export.os.fsync", _full)
        trace = tmp_path / "t.jsonl"
        with pytest.raises(TelemetryError, match="t.jsonl"):
            plan_interconnect(s27_graph(), trace_path=str(trace), **QUICK)

    def test_sink_parents_created(self, tmp_path):
        trace = tmp_path / "a" / "b" / "t.jsonl"
        plan_interconnect(s27_graph(), trace_path=str(trace), **QUICK)
        assert trace.is_file()


class TestCLIBadTelemetryPath:
    @pytest.mark.parametrize("flag", ["--trace"])
    def test_unwritable_parent_exits_2_before_planning(
        self, flag, tmp_path, capsys, monkeypatch
    ):
        import repro.core.planner as planner
        from repro.__main__ import main
        from repro.cliutil import EXIT_ERROR

        def _never(*_a, **_k):
            raise AssertionError("planned despite an unusable sink path")

        monkeypatch.setattr(planner, "_plan_stages", _never)
        blocker = tmp_path / "file"
        blocker.write_text("")
        bad = str(blocker / "x.jsonl")
        assert main(["plan", "s27", "--quick", flag, bad]) == EXIT_ERROR == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert bad in err
