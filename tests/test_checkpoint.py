"""Tests for crash-safe checkpoint/resume (repro.resilience.checkpoint).

Covers the atomic-write primitive, the checkpoint store (schema,
fingerprinting, corruption quarantine), the kill-at-every-stage
resume-equivalence property on two circuits, and the batch/CLI resume
surfaces.
"""

import hashlib
import json
import pickle
import re
import signal

import pytest

from repro.core import RunContext
from repro.core.planner import PlannerConfig, plan_interconnect
from repro.errors import CheckpointError, InterruptedRunError
from repro.ioutil import atomic_write
from repro.netlist import s27_graph
from repro.resilience import (
    CheckpointFault,
    CheckpointManager,
    FaultInjector,
    FaultSpec,
    run_fingerprint,
)
from repro.resilience.checkpoint import CKPT_SCHEMA


@pytest.fixture
def keep_signal_handlers():
    """Save/restore SIGINT+SIGTERM handlers around CLI invocations."""
    saved = {
        sig: signal.getsignal(sig) for sig in (signal.SIGINT, signal.SIGTERM)
    }
    yield
    for sig, handler in saved.items():
        signal.signal(sig, handler)


def _plan_s27(**kwargs):
    return plan_interconnect(
        s27_graph(),
        seed=1,
        whitespace=0.4,
        max_iterations=2,
        floorplan_iterations=300,
        **kwargs,
    )


def _signature(outcome):
    """The result-defining fields resume must reproduce bit-for-bit."""
    final = outcome.final
    return (
        final.t_clk,
        final.t_min,
        final.t_init,
        final.lac.report.n_foa if final.lac else None,
        final.lac.report.n_f if final.lac else None,
        final.min_area.report.n_foa if final.min_area else None,
        dict(final.lac.retiming.labels) if final.lac else None,
        len(outcome.iterations),
        [r.stage for r in outcome.ledger.records],
    )


class TestAtomicWrite:
    def test_writes_bytes_and_str(self, tmp_path):
        p = atomic_write(tmp_path / "a.txt", "héllo")
        assert p.read_text(encoding="utf-8") == "héllo"
        atomic_write(tmp_path / "b.bin", b"\x00\x01")
        assert (tmp_path / "b.bin").read_bytes() == b"\x00\x01"

    def test_creates_parents_and_overwrites(self, tmp_path):
        target = tmp_path / "deep" / "nested" / "f.json"
        atomic_write(target, "one")
        atomic_write(target, "two")
        assert target.read_text() == "two"

    def test_no_tmp_file_left_behind(self, tmp_path):
        atomic_write(tmp_path / "f", b"data")
        assert [p.name for p in tmp_path.iterdir()] == ["f"]

    def test_failure_leaves_destination_intact(self, tmp_path):
        target = tmp_path / "f"
        atomic_write(target, "good")

        class Boom:
            def __bytes__(self):
                raise RuntimeError("no bytes")

        with pytest.raises(TypeError):
            atomic_write(target, Boom())  # not bytes/str
        assert target.read_text() == "good"
        assert [p.name for p in tmp_path.iterdir()] == ["f"]


class TestFingerprint:
    def test_sensitive_to_graph_config_iterations(self):
        g = s27_graph()
        cfg = PlannerConfig()
        base = run_fingerprint(g, cfg, 2)
        assert base == run_fingerprint(s27_graph(), PlannerConfig(), 2)
        assert base != run_fingerprint(g, PlannerConfig(seed=7), 2)
        assert base != run_fingerprint(g, cfg, 1)
        g2 = s27_graph()
        g2.name = "other"
        assert base != run_fingerprint(g2, cfg, 2)

    def test_digests_unchanged_so_old_checkpoints_resume(self):
        # Pinned digests from before the run plumbing left PlannerConfig:
        # a changed digest would quarantine every existing checkpoint.
        assert run_fingerprint(s27_graph(), PlannerConfig(), 2) == (
            "6c245356d71d21ae171504de3584a5169252bc0e288e6f50933a09510a39fd4d"
        )
        assert run_fingerprint(
            s27_graph(), PlannerConfig(seed=3, whitespace=0.4), 1
        ) == "8b26f078a3a58d3e4e4461e29191e98ec03b591f6e7fad20e4abc185524acdda"

    @staticmethod
    def _bound_fingerprint(root, **ctx_fields):
        """The fingerprint a real s27 run binds its checkpoint store to."""
        store = CheckpointManager(root / "ck")
        _plan_s27(ctx=RunContext(checkpoint=store, **ctx_fields))
        return store.fingerprint

    def test_ignores_trace_path_and_resilience(self, tmp_path):
        from repro.resilience import ResilienceConfig

        plain = self._bound_fingerprint(tmp_path / "plain")
        assert plain == run_fingerprint(
            s27_graph(),
            PlannerConfig(seed=1, whitespace=0.4, floorplan_iterations=300),
            2,
        )
        assert plain == self._bound_fingerprint(
            tmp_path / "ctx",
            trace_path=str(tmp_path / "x.jsonl"),
            resilience=ResilienceConfig(),
        )

    def test_ignores_observability_settings(self, tmp_path):
        import io

        from repro.compile import CompileCache
        from repro.obs import HumanProgress, MetricsRegistry
        from repro.perf import PerfRecorder

        plain = self._bound_fingerprint(tmp_path / "plain")
        assert plain == self._bound_fingerprint(
            tmp_path / "ctx",
            metrics=MetricsRegistry(),
            progress=HumanProgress(out=io.StringIO()),
            perf=PerfRecorder(),
            compile_cache=CompileCache(mode="off"),
        )


class TestCheckpointManager:
    def _bound(self, tmp_path, resume=False):
        mgr = CheckpointManager(tmp_path, resume=resume)
        mgr.bind("circ", "f" * 64)
        return mgr

    def test_requires_bind(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        with pytest.raises(CheckpointError):
            mgr.commit("partition#1", {"x": 1})

    def test_commit_then_restore_roundtrip(self, tmp_path):
        self._bound(tmp_path).commit("partition#1", {"blocks": [1, 2, 3]})
        mgr = self._bound(tmp_path, resume=True)
        hit, value, meta = mgr.restore("partition#1")
        assert hit and value == {"blocks": [1, 2, 3]} and meta == {}

    def test_header_is_schema_versioned(self, tmp_path):
        mgr = self._bound(tmp_path)
        path = mgr.commit("iteration 1/retime#1", [1, 2], source="test")
        header = json.loads(path.read_bytes().split(b"\n", 1)[0])
        assert header["schema"] == CKPT_SCHEMA
        assert header["key"] == "iteration 1/retime#1"
        assert header["fingerprint"] == "f" * 64
        assert header["meta"] == {"source": "test"}
        hit, _v, meta = self._bound(tmp_path, resume=True).restore(
            "iteration 1/retime#1"
        )
        assert hit and meta["source"] == "test"

    def test_no_restore_without_resume(self, tmp_path):
        self._bound(tmp_path).commit("a#1", 42)
        hit, _, _ = self._bound(tmp_path, resume=False).restore("a#1")
        assert not hit

    def test_fresh_bind_clears_stale_snapshots(self, tmp_path):
        self._bound(tmp_path).commit("a#1", 42)
        self._bound(tmp_path, resume=False)  # fresh run supersedes
        hit, _, _ = self._bound(tmp_path, resume=True).restore("a#1")
        assert not hit

    def test_key_counts_per_scope_and_stage(self, tmp_path):
        mgr = self._bound(tmp_path)
        assert mgr.key("", "partition") == "partition#1"
        assert mgr.key("", "expand_floorplan") == "expand_floorplan#1"
        assert mgr.key("", "expand_floorplan") == "expand_floorplan#2"
        assert mgr.key("iteration 1", "retime") == "iteration 1/retime#1"

    def test_unpicklable_value_skips_commit(self, tmp_path, caplog):
        mgr = self._bound(tmp_path)
        assert mgr.commit("a#1", lambda: None) is None  # lambdas don't pickle
        hit, _, _ = self._bound(tmp_path, resume=True).restore("a#1")
        assert not hit

    #: The cause each corruption kind must be logged with.
    REASONS = {
        "truncate": "checksum mismatch|truncated \\(no header line\\)",
        "bitflip": "checksum mismatch",
        "stale_fingerprint": "stale fingerprint",
    }

    @pytest.mark.parametrize(
        "kind", ["truncate", "bitflip", "stale_fingerprint"]
    )
    def test_corruption_is_quarantined_and_missed(self, tmp_path, kind, caplog):
        mgr = self._bound(tmp_path)
        mgr.faults = FaultInjector(
            checkpoint_faults=[CheckpointFault(kind, key="a#1")]
        )
        path = mgr.commit("a#1", {"payload": list(range(100))})
        with caplog.at_level("WARNING", logger="repro.resilience.checkpoint"):
            hit, _, _ = self._bound(tmp_path, resume=True).restore("a#1")
        assert not hit
        assert not path.exists()
        assert (path.parent / "quarantine" / path.name).exists()
        assert "quarantined" in caplog.text
        assert re.search(self.REASONS[kind], caplog.text)  # names the cause

    def test_stale_fingerprint_message_names_cause(self, tmp_path, caplog):
        mgr = self._bound(tmp_path)
        mgr.commit("a#1", 1)
        other = CheckpointManager(tmp_path, resume=True)
        other.bind("circ", "0" * 64)  # different run fingerprint
        with caplog.at_level("WARNING"):
            hit, _, _ = other.restore("a#1")
        assert not hit and "stale fingerprint" in caplog.text

    def test_unknown_corruption_kind_rejected(self):
        with pytest.raises(ValueError):
            CheckpointFault("scramble")

    def test_outcome_roundtrip(self, tmp_path):
        mgr = self._bound(tmp_path)
        mgr.commit_outcome({"answer": 42})
        assert self._bound(tmp_path, resume=True).restore_outcome() == {
            "answer": 42
        }
        assert self._bound(tmp_path, resume=False).restore_outcome() is None


class TestWildcardFaults:
    def test_any_stage_counts_globally(self):
        inj = FaultInjector(
            [FaultSpec("*", on_call=3, error=InterruptedRunError)]
        )
        inj.on_call("a")
        inj.on_call("b")
        with pytest.raises(InterruptedRunError):
            inj.on_call("c")
        assert inj.calls("*") == 3


class TestResumeEquivalence:
    """Kill after every stage boundary; resume must be bit-identical."""

    def _sweep(self, build_graph, plan_kwargs, tmp_path):
        baseline = plan_interconnect(build_graph(), **plan_kwargs)
        base_sig = _signature(baseline)
        n_stages = len(baseline.ledger.records)
        assert n_stages >= 9
        for kill_at in range(1, n_stages + 1):
            ckdir = tmp_path / f"kill_{kill_at}"
            faults = FaultInjector(
                [
                    FaultSpec(
                        "*", on_call=kill_at + 1, error=InterruptedRunError
                    )
                ]
            )
            try:
                plan_interconnect(
                    build_graph(),
                    faults=faults,
                    checkpoint=CheckpointManager(ckdir),
                    **plan_kwargs,
                )
                # kill_at == n_stages: the kill lands after the last
                # stage, i.e. the run completes.
                assert kill_at == n_stages
            except InterruptedRunError:
                pass
            resumed = plan_interconnect(
                build_graph(),
                checkpoint=CheckpointManager(ckdir, resume=True),
                **plan_kwargs,
            )
            assert _signature(resumed) == base_sig, (
                f"resume after stage {kill_at} diverged"
            )

    def test_s27_all_kill_points(self, tmp_path):
        self._sweep(
            s27_graph,
            dict(
                seed=1,
                whitespace=0.4,
                max_iterations=2,
                floorplan_iterations=300,
            ),
            tmp_path,
        )

    def test_s298_all_kill_points(self, tmp_path):
        from repro.experiments.circuits import get_circuit

        spec = get_circuit("s298")
        self._sweep(
            spec.build,
            dict(
                seed=spec.seed,
                whitespace=spec.whitespace,
                n_blocks=spec.n_blocks,
                max_iterations=1,
                floorplan_iterations=300,
            ),
            tmp_path,
        )

    def test_corrupted_checkpoint_recomputed_to_same_outcome(self, tmp_path):
        kwargs = dict(
            seed=1, whitespace=0.4, max_iterations=2, floorplan_iterations=300
        )
        baseline = plan_interconnect(s27_graph(), **kwargs)
        faults = FaultInjector(
            [FaultSpec("*", on_call=6, error=InterruptedRunError)],
            checkpoint_faults=[CheckpointFault("bitflip", key="route")],
        )
        with pytest.raises(InterruptedRunError):
            plan_interconnect(
                s27_graph(),
                faults=faults,
                checkpoint=CheckpointManager(tmp_path),
                **kwargs,
            )
        resumed = plan_interconnect(
            s27_graph(),
            checkpoint=CheckpointManager(tmp_path, resume=True),
            **kwargs,
        )
        assert _signature(resumed) == _signature(baseline)
        quarantine = tmp_path / "s27" / "quarantine"
        assert quarantine.is_dir() and any(quarantine.iterdir())

    def test_pre_schema_compile_checkpoint_is_recompiled(self, tmp_path):
        """A compile snapshot pickled under ``repro-compile/2`` (no
        ``tech``/``prune`` fields; that layout kept the W/D matrices in
        the record) must be recomputed on resume, not restored into an
        AttributeError in the next search.
        """
        kwargs = dict(
            seed=1, whitespace=0.4, max_iterations=2, floorplan_iterations=300
        )
        baseline = plan_interconnect(s27_graph(), **kwargs)
        stages = [r.stage for r in baseline.ledger.records]
        kill_at = stages.index("compile") + 1  # killed right after compile
        faults = FaultInjector(
            [FaultSpec("*", on_call=kill_at + 1, error=InterruptedRunError)]
        )
        with pytest.raises(InterruptedRunError):
            plan_interconnect(
                s27_graph(),
                faults=faults,
                checkpoint=CheckpointManager(tmp_path),
                **kwargs,
            )
        (path,) = (tmp_path / "s27").glob("*compile*.ckpt")
        data = path.read_bytes()
        newline = data.index(b"\n")
        header = json.loads(data[:newline])
        artifact = pickle.loads(data[newline + 1 :])
        artifact.schema = "repro-compile/2"
        del artifact.__dict__["tech"]
        payload = pickle.dumps(artifact)
        header["sha256"] = hashlib.sha256(payload).hexdigest()
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)

        resumed = plan_interconnect(
            s27_graph(),
            checkpoint=CheckpointManager(tmp_path, resume=True),
            **kwargs,
        )
        assert _signature(resumed) == _signature(baseline)
        assert (tmp_path / "s27" / "quarantine" / path.name).exists()

    def test_old_layout_graph_checkpoint_is_recomputed(self, tmp_path, caplog):
        """An expand snapshot whose graph was pickled with the networkx
        layout of ``CircuitGraph`` (a ``_g`` attribute) is refused on
        unpickling: the file is quarantined and the stage recomputed to
        the same outcome."""
        import copyreg

        from repro.netlist import CircuitGraph, graph_to_dict
        from tests.oracles.graph import NxCircuitGraph

        class OldLayout:
            """Pickles as a ``CircuitGraph`` holding a networkx graph."""

            def __init__(self, graph):
                doc = graph_to_dict(graph)
                old = NxCircuitGraph(graph.name)
                for unit in doc["units"]:
                    old.add_unit(unit["name"], unit["delay"], unit["area"], unit["kind"])
                for conn in doc["connections"]:
                    old.add_connection(conn["u"], conn["v"], conn["weight"])
                self.state = {"name": graph.name, "_g": old.g, "_wcc_cache": None}

            def __reduce_ex__(self, protocol):
                return copyreg._reconstructor, (CircuitGraph, object, None), self.state

        kwargs = dict(
            seed=1, whitespace=0.4, max_iterations=2, floorplan_iterations=300
        )
        baseline = plan_interconnect(s27_graph(), **kwargs)
        stages = [r.stage for r in baseline.ledger.records]
        kill_at = stages.index("expand") + 1  # killed right after expand
        faults = FaultInjector(
            [FaultSpec("*", on_call=kill_at + 1, error=InterruptedRunError)]
        )
        with pytest.raises(InterruptedRunError):
            plan_interconnect(
                s27_graph(),
                faults=faults,
                checkpoint=CheckpointManager(tmp_path),
                **kwargs,
            )
        (path,) = (tmp_path / "s27").glob("*expand*.ckpt")
        data = path.read_bytes()
        newline = data.index(b"\n")
        header = json.loads(data[:newline])
        expanded = pickle.loads(data[newline + 1 :])
        expanded.graph = OldLayout(expanded.graph)
        payload = pickle.dumps(expanded)
        header["sha256"] = hashlib.sha256(payload).hexdigest()
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)

        resumed = plan_interconnect(
            s27_graph(),
            checkpoint=CheckpointManager(tmp_path, resume=True),
            **kwargs,
        )
        assert _signature(resumed) == _signature(baseline)
        assert graph_to_dict(resumed.first.expanded.graph) == graph_to_dict(
            baseline.first.expanded.graph
        )
        assert (tmp_path / "s27" / "quarantine" / path.name).exists()
        assert "older CircuitGraph layout" in caplog.text

    def test_completed_run_resumes_via_outcome(self, tmp_path):
        kwargs = dict(
            seed=1, whitespace=0.4, max_iterations=2, floorplan_iterations=300
        )
        first = plan_interconnect(
            s27_graph(), checkpoint=CheckpointManager(tmp_path), **kwargs
        )
        again = plan_interconnect(
            s27_graph(),
            checkpoint=CheckpointManager(tmp_path, resume=True),
            **kwargs,
        )
        assert _signature(again) == _signature(first)

    def test_resumed_run_traces_resumed_from(self, tmp_path):
        from repro.obs import Tracer

        kwargs = dict(
            seed=1, whitespace=0.4, max_iterations=2, floorplan_iterations=300
        )
        faults = FaultInjector(
            [FaultSpec("*", on_call=4, error=InterruptedRunError)]
        )
        with pytest.raises(InterruptedRunError):
            plan_interconnect(
                s27_graph(),
                faults=faults,
                checkpoint=CheckpointManager(tmp_path),
                **kwargs,
            )
        tracer = Tracer()
        plan_interconnect(
            s27_graph(),
            tracer=tracer,
            checkpoint=CheckpointManager(tmp_path, resume=True),
            **kwargs,
        )
        resumed_events = [
            (span.name, attrs)
            for span in tracer.spans
            for name, _t, attrs in span.events
            if name == "resumed_from"
        ]
        assert len(resumed_events) == 3  # partition, floorplan, tiles
        assert {n for n, _ in resumed_events} == {
            "partition",
            "floorplan",
            "tiles",
        }
        assert all("checkpoint" in attrs for _n, attrs in resumed_events)

    def test_changed_config_invalidates_checkpoints(self, tmp_path):
        base = dict(seed=1, whitespace=0.4, floorplan_iterations=300)
        plan_interconnect(
            s27_graph(),
            checkpoint=CheckpointManager(tmp_path),
            max_iterations=2,
            **base,
        )
        # A different seed is a different run: nothing may be restored.
        from repro.obs import Tracer

        tracer = Tracer()
        plan_interconnect(
            s27_graph(),
            checkpoint=CheckpointManager(tmp_path, resume=True),
            max_iterations=2,
            tracer=tracer,
            seed=2,
            whitespace=0.4,
            floorplan_iterations=300,
        )
        events = [
            name
            for span in tracer.spans
            for name, _t, _a in span.events
            if name == "resumed_from"
        ]
        assert events == []


class TestTable1Resume:
    def test_resume_skips_completed_circuits(self, tmp_path, monkeypatch):
        import repro.core.planner as planner_mod
        from repro.experiments.circuits import get_circuit
        from repro.experiments.table1 import run_table1_resilient

        specs = [get_circuit("s298")]
        overrides = {"floorplan_iterations": 300}
        first = run_table1_resilient(
            specs,
            max_iterations=1,
            plan_overrides=overrides,
            checkpoint_dir=str(tmp_path),
        )
        assert first.n_ok == 1

        # The resumed run must restore the committed outcome, not plan:
        # any planning stage run fails the circuit.
        def no_planning(*_args, **_kwargs):
            raise AssertionError("the resumed run planned")

        monkeypatch.setattr(planner_mod, "_plan_stages", no_planning)
        resumed = run_table1_resilient(
            specs,
            max_iterations=1,
            plan_overrides=overrides,
            checkpoint_dir=str(tmp_path),
            resume=True,
        )
        assert resumed.n_ok == 1
        a, b = first.items[0].result, resumed.items[0].result
        assert (a.t_clk, a.lac_n_foa, a.lac_n_f, a.n_wr) == (
            b.t_clk,
            b.lac_n_foa,
            b.lac_n_f,
            b.n_wr,
        )

    def test_interrupted_batch_is_marked_and_partial(self, tmp_path):
        from repro.experiments.circuits import get_circuit
        from repro.experiments.table1 import run_table1_resilient

        specs = [get_circuit("s298"), get_circuit("s386")]

        def faults_for(name):
            if name == "s386":
                return FaultInjector(
                    [FaultSpec("partition", error=InterruptedRunError)]
                )
            return None

        batch = run_table1_resilient(
            specs,
            max_iterations=1,
            plan_overrides={"floorplan_iterations": 300},
            faults_for=faults_for,
            checkpoint_dir=str(tmp_path),
        )
        assert batch.interrupted
        assert [i.name for i in batch.items] == ["s298"]
        assert "interrupted (resumable)" in batch.summary()
        # The finished circuit is on disk; a resumed batch completes.
        resumed = run_table1_resilient(
            specs,
            max_iterations=1,
            plan_overrides={"floorplan_iterations": 300},
            checkpoint_dir=str(tmp_path),
            resume=True,
        )
        assert not resumed.interrupted and resumed.n_ok == 2


class TestCLI:
    def test_resume_requires_checkpoint_dir(self, capsys, keep_signal_handlers):
        from repro.__main__ import main

        assert main(["plan", "s27", "--resume"]) == 2
        assert "--resume requires --checkpoint-dir" in capsys.readouterr().err
        assert main(["table1", "--resume"]) == 2
        assert "--resume requires --checkpoint-dir" in capsys.readouterr().err

    def test_plan_checkpoint_and_resume(
        self, tmp_path, capsys, keep_signal_handlers
    ):
        from repro.__main__ import main

        ckdir = str(tmp_path / "ck")
        code = main(["plan", "s27", "--quick", "--checkpoint-dir", ckdir])
        assert code in (0, 1)
        capsys.readouterr()
        assert (tmp_path / "ck" / "s27" / "outcome.ckpt").exists()
        assert (
            main(
                ["plan", "s27", "--quick", "--checkpoint-dir", ckdir, "--resume"]
            )
            == code
        )
        assert "interconnect planning: s27" in capsys.readouterr().out

    def test_interrupted_plan_exits_4_and_is_resumable(
        self, tmp_path, capsys, keep_signal_handlers, monkeypatch
    ):
        import repro.core.planner as planner_mod
        from repro.__main__ import EXIT_INTERRUPTED, main

        ckdir = str(tmp_path / "ck")
        real_plan = planner_mod.plan_interconnect

        def _killed(graph, *a, **kw):
            kw["faults"] = FaultInjector(
                [FaultSpec("*", on_call=5, error=InterruptedRunError)]
            )
            return real_plan(graph, *a, **kw)

        monkeypatch.setattr("repro.core.plan_interconnect", _killed)
        code = main(["plan", "s27", "--quick", "--checkpoint-dir", ckdir])
        assert code == EXIT_INTERRUPTED == 4
        err = capsys.readouterr().err
        assert "interrupted" in err and "--resume" in err
        monkeypatch.setattr("repro.core.plan_interconnect", real_plan)
        assert main(
            ["plan", "s27", "--quick", "--checkpoint-dir", ckdir, "--resume"]
        ) in (0, 1)

    def test_resume_with_new_metrics_path_restores_stages(
        self, tmp_path, capsys, keep_signal_handlers, monkeypatch
    ):
        import repro.core.planner as planner_mod
        from repro.__main__ import EXIT_INTERRUPTED, main

        ckdir = str(tmp_path / "ck")
        real_plan = planner_mod.plan_interconnect

        def _killed(graph, *a, **kw):
            kw["faults"] = FaultInjector(
                [FaultSpec("*", on_call=5, error=InterruptedRunError)]
            )
            return real_plan(graph, *a, **kw)

        monkeypatch.setattr("repro.core.plan_interconnect", _killed)
        first = ["plan", "s27", "--quick", "--checkpoint-dir", ckdir]
        sink = ["--trace", str(tmp_path / "first.trace.jsonl")]
        assert main(first + sink) == EXIT_INTERRUPTED
        monkeypatch.setattr("repro.core.plan_interconnect", real_plan)
        trace = tmp_path / "resume.trace.jsonl"
        resumed = first + ["--resume", "--trace", str(trace)]
        assert main(resumed) in (0, 1)
        capsys.readouterr()
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        restored = [
            r
            for r in records
            if r.get("attrs", {}).get("kind") == "stage"
            and r.get("attrs", {}).get("resumed")
        ]
        assert len(restored) >= 4  # the stages committed before the kill

    def test_sigterm_handler_raises_interrupted(self, keep_signal_handlers):
        import os

        from repro.cliutil import install_interrupt_handlers

        install_interrupt_handlers()
        with pytest.raises(InterruptedRunError) as exc_info:
            os.kill(os.getpid(), signal.SIGTERM)
        assert exc_info.value.signum == signal.SIGTERM
