"""Lean compile artifacts: a disk hit loads only the replay record.

A warm re-plan must reproduce the cold plan bit for bit without
rebuilding the memory-only search inputs (W/D, the candidate list);
the rare paths that do rebuild them must give exactly what a fresh
compile gives, and only for the graph the artifact names. A cold
iteration's ``T_clk`` rows are a mask of the min-period search's
witness table, never a second build.
"""

import dataclasses
import pickle
import zlib

import numpy as np
import pytest

from repro.compile import CompileCache, CompiledCircuit
from repro.core import plan_interconnect
from repro.core.planner import _run_iteration
from repro.experiments.circuits import load_circuit, run_settings
from repro.experiments.table1 import Table1Row
from repro.netlist import random_circuit
from repro.obs import Tracer
from repro.obs.export import read_trace, write_trace
from repro.obs.summarize import summarize
from repro.resilience import StageRunner, default_resilience
from repro.resilience.degrade import find_relaxed_period
from repro.resilience.checkpoint import CheckpointManager
from repro.retime import candidate_periods, clock_rows, min_period_retiming
from repro.retime.constraints import WitnessTable
from repro.retime.fastcheck import FeasibilityChecker


@pytest.fixture()
def graph():
    return random_circuit("lean", n_units=40, n_ffs=20, seed=4)


def _loaded(graph, tmp_path, solve=False):
    """(fresh compile, the same artifact read back by a new cache)."""
    cache = CompileCache(tmp_path)
    fresh, _ = cache.get_or_compile(graph)
    if solve:
        min_period_retiming(graph, compiled=fresh)
        fresh.clock_pairs(fresh.t_min + 0.5 * (fresh.t_init - fresh.t_min))
        cache.save(fresh)
    loaded, hit = CompileCache(tmp_path).get_or_compile(graph)
    assert hit and loaded is not fresh and loaded.wd is None
    return fresh, loaded


def _rebuild_reasons(tracer):
    return [s.attrs["reason"] for s in tracer.spans if s.name == "compile/rebuild"]


def _plan_signature(outcome):
    row = dataclasses.asdict(Table1Row.from_outcome(outcome))
    row.pop("ma_seconds")
    row.pop("lac_seconds")
    first = outcome.first
    return (
        row,
        first.t_min,
        first.t_clk,
        first.lac.history,
        first.lac.retiming.labels,
        first.min_area.result.labels,
    )


class TestWarmPlanReplaysOnly:
    @pytest.mark.parametrize("name", ["s298", "s386", "s1269"])
    def test_warm_plan_is_identical_and_rebuilds_nothing(self, name, tmp_path):
        graph, kwargs = load_circuit(name)
        max_iterations, overrides = run_settings(quick=True)
        kwargs.update(overrides, max_iterations=max_iterations)
        cold = plan_interconnect(graph, compile_cache=CompileCache(tmp_path), **kwargs)
        tracer = Tracer()
        warm = plan_interconnect(
            graph, compile_cache=CompileCache(tmp_path), tracer=tracer, **kwargs
        )
        assert _plan_signature(warm) == _plan_signature(cold)
        compiles = [s for s in tracer.spans if s.name == "compile"]
        assert [s.attrs["cache"] for s in compiles] == ["hit"]
        assert 0 < compiles[0].attrs["payload_bytes"] < 256 * 1024
        assert _rebuild_reasons(tracer) == []


class TestRebuildMatchesFreshCompile:
    def test_min_period_without_witness(self, graph, tmp_path):
        fresh, loaded = _loaded(graph, tmp_path)
        assert loaded.t_min is None
        tracer = Tracer()
        t_loaded, r_loaded = min_period_retiming(graph, tracer=tracer, compiled=loaded)
        t_fresh, r_fresh = min_period_retiming(graph, compiled=fresh)
        assert t_loaded == t_fresh
        assert r_loaded.labels == r_fresh.labels
        assert loaded.t_min_labels == fresh.t_min_labels
        assert _rebuild_reasons(tracer) == ["min_period"]

    @pytest.mark.parametrize("prune", [True, False])
    def test_clock_pairs_at_a_new_period(self, graph, tmp_path, prune):
        fresh, loaded = _loaded(graph, tmp_path, solve=True)
        stored = set(loaded.clock_pair_sets)
        period = loaded.t_min + 0.25 * (loaded.t_init - loaded.t_min)
        assert (period, prune) not in stored
        tracer = Tracer()
        got = loaded.clock_pairs(period, prune=prune, graph=graph, tracer=tracer)
        want = fresh.clock_pairs(period, prune=prune)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert _rebuild_reasons(tracer) == ["clock_pairs"]
        # Once rebuilt, the inputs stay: the next new key rebuilds nothing.
        loaded.clock_pairs(period + 1e-3, prune=prune, graph=graph, tracer=tracer)
        assert _rebuild_reasons(tracer) == ["clock_pairs"]

    def test_find_relaxed_period(self, graph, tmp_path):
        fresh, loaded = _loaded(graph, tmp_path, solve=True)
        tracer = Tracer()
        loaded.rebuild_search_inputs(graph, "degrade", tracer=tracer)
        t_clk = 0.5 * loaded.t_min
        assert find_relaxed_period(
            graph, t_clk, loaded.t_init, compiled=loaded
        ) == find_relaxed_period(graph, t_clk, fresh.t_init, compiled=fresh)
        assert _rebuild_reasons(tracer) == ["degrade"]

    def test_planner_degrade_path(self, tmp_path):
        g = random_circuit("resil", n_units=50, n_ffs=14, seed=31)
        probe = plan_interconnect(g, seed=31, max_iterations=1, floorplan_iterations=400)

        def iteration(tracer):
            return _run_iteration(
                g,
                probe.first.partition,
                probe.first.floorplan,
                probe.config,
                index=2,
                t_clk=0.01,
                runner=StageRunner(default_resilience(), tracer=tracer),
                cache=CompileCache(tmp_path),
            )

        cold = iteration(Tracer())
        tracer = Tracer()
        warm = iteration(tracer)
        assert cold.degraded and warm.degraded
        assert (warm.t_min, warm.t_clk) == (cold.t_min, cold.t_clk)
        assert warm.lac.history == cold.lac.history
        assert warm.lac.retiming.labels == cold.lac.retiming.labels
        assert _rebuild_reasons(tracer) == ["degrade"]

    def test_stored_pairs_need_no_graph(self, graph, tmp_path):
        _fresh, loaded = _loaded(graph, tmp_path, solve=True)
        for (period, prune), table in loaded.clock_pair_sets.items():
            assert loaded.clock_pairs(period, prune=prune) is table
        assert loaded.wd is None
        with pytest.raises(ValueError, match="needs the graph"):
            loaded.clock_pairs(loaded.t_init - 1e-6)


class TestSearchTableHandoff:
    """The min-period search's witness table serves the iteration's
    ``T_clk`` rows; nothing keeps it afterwards."""

    @staticmethod
    def _searched(graph):
        compiled = CompiledCircuit.compile(graph)
        t_min, found = min_period_retiming(
            graph, compiled=compiled, search_only=True
        )
        t_clk = t_min + 0.2 * (compiled.t_init - t_min)
        return compiled, found.checker.witness, t_clk

    def test_clock_pairs_mask_the_search_table(self, graph, monkeypatch):
        compiled, table, t_clk = self._searched(graph)
        want = clock_rows(compiled.wd, t_clk, True)

        def no_build(*_a, **_k):
            raise AssertionError("clock rows rebuilt despite a covering table")

        monkeypatch.setattr("repro.compile.artifact.clock_rows", no_build)
        got = compiled.clock_pairs(t_clk, witness=table)
        assert np.array_equal(got, want)
        assert compiled.clock_pair_sets[(t_clk, True)] is got

    def test_uncovered_or_unpruned_periods_build(self, graph):
        compiled, _table, t_clk = self._searched(graph)
        high = WitnessTable.build(compiled.wd, compiled.t_init)
        got = compiled.clock_pairs(t_clk, witness=high)  # floor above t_clk
        assert np.array_equal(got, clock_rows(compiled.wd, t_clk, True))
        full = compiled.clock_pairs(t_clk, prune=False, witness=high)
        assert np.array_equal(full, clock_rows(compiled.wd, t_clk, False))

    def test_foreign_table_refused(self, graph):
        compiled, _table, t_clk = self._searched(graph)
        _other, foreign, _t = self._searched(
            random_circuit("lean", n_units=40, n_ffs=20, seed=5)
        )
        with pytest.raises(ValueError, match="not of this artifact"):
            compiled.clock_pairs(t_clk, witness=foreign)

    def test_cold_plan_builds_one_table_per_iteration(self, monkeypatch):
        builds = []
        real = WitnessTable.build.__func__

        def counted(cls, wd, floor):
            builds.append(floor)
            return real(cls, wd, floor)

        monkeypatch.setattr(WitnessTable, "build", classmethod(counted))
        graph, kwargs = load_circuit("s386")
        tracer = Tracer()
        outcome = plan_interconnect(graph, tracer=tracer, **kwargs)
        searches = [s for s in tracer.spans if s.name == "min_period/search"]
        assert len(builds) == len(searches) == len(outcome.iterations) == 2
        parent = {s.span_id: s.parent_id for s in tracer.spans}
        for span in tracer.spans:
            if span.name in ("feas/witness", "compile/rebuild"):
                assert parent[span.span_id] in {s.span_id for s in searches}

    def test_min_period_stage_value_holds_no_table(self, graph, tmp_path):
        store = CheckpointManager(tmp_path / "ck")
        plan_interconnect(
            graph, checkpoint=store, max_iterations=1, floorplan_iterations=300
        )
        resumed = CheckpointManager(tmp_path / "ck", resume=True)
        resumed.bind(store.circuit, store.fingerprint)
        hit, value, _meta = resumed.restore("iteration 1/min_period#1")
        assert hit
        t_min, labels = value
        assert isinstance(t_min, float) and labels
        assert all(type(v) is int for v in labels.values())
        raw = pickle.dumps(value)
        assert b"WitnessTable" not in raw and b"FeasibilityChecker" not in raw

    def test_find_relaxed_period_scans_exact_candidates(self, graph):
        compiled = CompiledCircuit.compile(graph)
        min_period_retiming(graph, compiled=compiled)
        checker = FeasibilityChecker.build(graph, compiled.wd)
        for t_clk in (0.5 * compiled.t_min, compiled.t_min - 1e-6):
            window = [
                t for t in candidate_periods(compiled.wd)
                if t_clk < t <= compiled.t_init
            ]
            scan = next(t for t in window if checker.check(t) is not None)
            assert find_relaxed_period(
                graph, t_clk, compiled.t_init, compiled=compiled
            ) == scan == compiled.t_min


class TestForeignGraphRefused:
    def test_other_graph_is_not_used(self, graph, tmp_path):
        _fresh, loaded = _loaded(graph, tmp_path)
        other = random_circuit("lean", n_units=40, n_ffs=20, seed=5)
        with pytest.raises(ValueError, match="does not match"):
            loaded.rebuild_search_inputs(other, "min_period")
        with pytest.raises(ValueError, match="does not match"):
            min_period_retiming(other, compiled=loaded)
        with pytest.raises(ValueError, match="does not match"):
            loaded.clock_pairs(loaded.t_init - 1e-6, graph=other)
        assert loaded.wd is None and loaded.t_min is None


class TestPayload:
    def test_payload_holds_no_search_inputs(self, graph, tmp_path):
        cache = CompileCache(tmp_path)
        artifact, _ = cache.get_or_compile(graph)
        assert artifact.wd is not None  # a fresh compile keeps them
        min_period_retiming(graph, compiled=artifact)
        cache.save(artifact)
        (path,) = tmp_path.glob("*.cc")
        data = path.read_bytes()
        raw = zlib.decompress(data[data.index(b"\n") + 1 :])
        assert b"WDMatrices" not in raw
        assert cache.stats.bytes_written > 0
        reader = CompileCache(tmp_path)
        loaded = reader.get(artifact.fingerprint)
        assert reader.stats.bytes_read == len(data) - data.index(b"\n") - 1
        assert all(
            getattr(loaded, f) is None
            for f in ("wd", "candidates")
        )
        assert loaded.n_candidates == len(artifact.candidates)

    def test_checkpoint_pickle_is_lean_too(self, graph):
        artifact = CompiledCircuit.compile(graph)
        clone = pickle.loads(pickle.dumps(artifact))
        assert (clone.fingerprint, clone.order, clone.t_init) == (
            artifact.fingerprint,
            artifact.order,
            artifact.t_init,
        )
        assert clone.wd is None and artifact.wd is not None


class TestTraceSummary:
    def test_summarize_reports_lookups_and_rebuilds(self, graph, tmp_path):
        _fresh, loaded = _loaded(graph, tmp_path)
        tracer = Tracer()
        with tracer.span("compile", cache="hit", payload_bytes=2048):
            pass
        min_period_retiming(graph, tracer=tracer, compiled=loaded)
        doc = read_trace(write_trace(tracer, tmp_path / "t.jsonl"))
        text = summarize(doc)
        assert (
            "compile cache: 1 lookups (1 hit), 2.0 KiB payload read/written; "
            "1 search-input rebuilds (min_period ×1)"
        ) in text
