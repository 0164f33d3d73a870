"""Tests for the compiled-circuit cache (:mod:`repro.compile`):
fingerprint sensitivity, artifact correctness against the uncompiled
paths, disk roundtrip and corruption handling, cache modes, and
bit-identical planner results cached vs uncached."""

import copy
import dataclasses

import numpy as np
import pytest

from repro.compile import (
    COMPILE_SCHEMA,
    CompileCache,
    CompiledCircuit,
    compile_fingerprint,
)
from repro.errors import InfeasiblePeriodError
from repro.netlist import random_circuit, s27_graph
from repro.retime import (
    candidate_periods,
    clock_period,
    min_period_retiming,
    prune_redundant,
    wd_matrices,
)
from repro.tech.params import DEFAULT_TECH


@pytest.fixture()
def graph():
    return random_circuit("cc", n_units=30, n_ffs=18, seed=9)


class TestFingerprint:
    def test_deterministic(self, graph):
        assert compile_fingerprint(graph) == compile_fingerprint(graph)
        assert len(compile_fingerprint(graph)) == 64

    def test_circuit_perturbations_change_digest(self, graph):
        base = compile_fingerprint(graph)
        heavier = copy.deepcopy(graph)
        heavier._g.nodes[next(iter(heavier.units()))]["delay"] += 0.5
        assert compile_fingerprint(heavier) != base
        rewired = copy.deepcopy(graph)
        u, v = list(rewired.units())[:2]
        rewired.add_connection(u, v, weight=7)
        assert compile_fingerprint(rewired) != base

    def test_tech_perturbation_changes_digest(self, graph):
        base = compile_fingerprint(graph)
        field = dataclasses.fields(DEFAULT_TECH)[0].name
        tweaked = dataclasses.replace(
            DEFAULT_TECH, **{field: getattr(DEFAULT_TECH, field) * 1.25}
        )
        assert compile_fingerprint(graph, tech=tweaked) != base

    def test_compile_switches_change_digest(self, graph):
        base = compile_fingerprint(graph, prune=True)
        assert compile_fingerprint(graph, prune=False) != base


class TestArtifact:
    def test_matches_uncompiled_front_half(self, graph):
        art = CompiledCircuit.compile(graph)
        wd = wd_matrices(graph)
        assert art.order == wd.order
        both = np.isfinite(art.wd.w)
        assert (both == np.isfinite(wd.w)).all()
        assert np.array_equal(art.wd.w[both], wd.w[both])
        assert np.array_equal(art.wd.d[both], wd.d[both])
        assert art.t_init == clock_period(graph, wd)
        assert art.candidates == candidate_periods(wd)
        assert art.exact_candidates == candidate_periods(wd, tol=0.0)

    def test_clock_pairs_match_list_pipeline(self, graph):
        art = CompiledCircuit.compile(graph)
        wd = art.wd
        period = 0.6 * art.t_init + 0.4 * art.max_delay
        rows, cols = art.clock_pairs(period, prune=True)
        expected = prune_redundant(wd, period, wd.pairs_exceeding(period))
        assert list(zip(rows.tolist(), cols.tolist())) == expected
        rows_u, cols_u = art.clock_pairs(period, prune=False)
        assert list(zip(rows_u.tolist(), cols_u.tolist())) == \
            wd.pairs_exceeding(period)

    def test_clock_pairs_memoise_and_mark_dirty(self, graph):
        art = CompiledCircuit.compile(graph)
        assert not art.dirty
        period = 0.7 * art.t_init + 0.3 * art.max_delay
        first = art.clock_pairs(period)
        assert art.dirty
        assert art.clock_pairs(period)[0] is first[0]

    def test_infeasible_period_raises_like_clock_constraints(self, graph):
        art = CompiledCircuit.compile(graph)
        with pytest.raises(InfeasiblePeriodError):
            art.clock_pairs(art.max_delay * 0.5)

    def test_min_period_replay_is_bit_identical(self, graph):
        art = CompiledCircuit.compile(graph)
        t_fresh, r_fresh = min_period_retiming(graph, compiled=art)
        assert art.t_min == t_fresh
        t_replay, r_replay = min_period_retiming(graph, compiled=art)
        assert t_replay == t_fresh
        assert r_replay.labels == r_fresh.labels


class TestCacheModes:
    def test_off_mode_always_compiles(self, graph, tmp_path):
        cache = CompileCache(tmp_path, mode="off")
        _, hit1 = cache.get_or_compile(graph)
        _, hit2 = cache.get_or_compile(graph)
        assert (hit1, hit2) == (False, False)
        assert cache.stats.misses == 2
        assert not list(tmp_path.glob("*.cc"))

    def test_auto_mode_disk_roundtrip(self, graph, tmp_path):
        writer = CompileCache(tmp_path, mode="auto")
        original, hit = writer.get_or_compile(graph)
        assert not hit
        assert list(tmp_path.glob("*.cc"))
        # A fresh instance (empty memory) must hit from disk, equal in
        # every compared field.
        reader = CompileCache(tmp_path, mode="auto")
        restored, hit = reader.get_or_compile(graph)
        assert hit
        assert reader.stats.disk_hits == 1
        assert restored.fingerprint == original.fingerprint
        assert restored.candidates == original.candidates
        assert np.array_equal(
            restored.wd.w[np.isfinite(restored.wd.w)],
            original.wd.w[np.isfinite(original.wd.w)],
        )

    def test_memory_lru_serves_before_disk(self, graph, tmp_path):
        cache = CompileCache(tmp_path, mode="auto")
        cache.get_or_compile(graph)
        _, hit = cache.get_or_compile(graph)
        assert hit
        assert cache.stats.memory_hits == 1
        assert cache.stats.disk_hits == 0

    def test_readonly_never_writes(self, graph, tmp_path):
        cache = CompileCache(tmp_path, mode="readonly")
        artifact, hit = cache.get_or_compile(graph)
        assert not hit
        artifact.note_min_period(1.0, {})
        cache.put(artifact)
        cache.save(artifact)
        assert not list(tmp_path.iterdir())
        assert cache.stats.writes == 0

    def test_readonly_serves_prewarmed_store(self, graph, tmp_path):
        CompileCache(tmp_path, mode="auto").get_or_compile(graph)
        before = sorted(p.name for p in tmp_path.iterdir())
        reader = CompileCache(tmp_path, mode="readonly")
        _, hit = reader.get_or_compile(graph)
        assert hit
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_save_persists_solve_enrichment(self, graph, tmp_path):
        cache = CompileCache(tmp_path, mode="auto")
        artifact, _ = cache.get_or_compile(graph)
        assert cache.save(artifact) is None  # nothing new yet
        min_period_retiming(graph, compiled=artifact)
        assert artifact.dirty
        assert cache.save(artifact) is not None
        restored = CompileCache(tmp_path).get(artifact.fingerprint)
        assert restored.t_min == artifact.t_min
        assert restored.t_min_labels == artifact.t_min_labels

    def test_clear_and_entries(self, graph, tmp_path):
        cache = CompileCache(tmp_path, mode="auto")
        cache.get_or_compile(graph)
        (entry,) = cache.entries()
        assert entry["schema"] == COMPILE_SCHEMA
        assert entry["circuit"] == graph.name
        assert entry["n"] == graph.num_units
        assert cache.clear() == 1
        assert cache.entries() == []
        _, hit = cache.get_or_compile(graph)
        assert not hit


class TestCorruption:
    def _prewarm(self, graph, tmp_path):
        cache = CompileCache(tmp_path, mode="auto")
        artifact, _ = cache.get_or_compile(graph)
        (path,) = tmp_path.glob("*.cc")
        return artifact.fingerprint, path

    def test_flipped_payload_byte_quarantines_and_rebuilds(
        self, graph, tmp_path
    ):
        fingerprint, path = self._prewarm(graph, tmp_path)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        cache = CompileCache(tmp_path, mode="auto")
        assert cache.get(fingerprint) is None
        assert (tmp_path / "quarantine" / path.name).exists()
        artifact, hit = cache.get_or_compile(graph)
        assert not hit
        assert artifact.fingerprint == fingerprint
        assert path.exists()  # rebuilt cleanly

    def test_truncated_file_quarantines(self, graph, tmp_path):
        fingerprint, path = self._prewarm(graph, tmp_path)
        path.write_bytes(path.read_bytes()[:40])
        assert CompileCache(tmp_path).get(fingerprint) is None
        assert (tmp_path / "quarantine" / path.name).exists()

    def test_wrong_fingerprint_file_rejected(self, graph, tmp_path):
        fingerprint, path = self._prewarm(graph, tmp_path)
        imposter = tmp_path / ("0" * 64 + ".cc")
        path.rename(imposter)
        assert CompileCache(tmp_path).get("0" * 64) is None
        assert not imposter.exists()


class TestPlannerEquivalence:
    """plan_interconnect results are bit-identical with the cache off,
    on a cold miss, and on a warm hit."""

    @staticmethod
    def _plan(cache):
        from repro.core import plan_interconnect

        g = s27_graph()
        return plan_interconnect(
            g,
            seed=27,
            max_iterations=1,
            floorplan_iterations=60,
            compile_cache=cache,
        )

    def test_off_miss_hit_identical(self, tmp_path):
        off = self._plan(CompileCache(None, mode="off"))
        shared = CompileCache(tmp_path, mode="auto")
        cold = self._plan(shared)
        assert shared.stats.misses == 1 and shared.stats.hits == 0
        warm = self._plan(shared)
        assert shared.stats.hits == 1
        for other in (cold, warm):
            for a, b in zip(off.iterations, other.iterations):
                assert (a.t_init, a.t_min, a.t_clk) == (b.t_init, b.t_min, b.t_clk)
                assert (a.lac.report.n_foa, a.lac.report.n_f) == (
                    b.lac.report.n_foa,
                    b.lac.report.n_f,
                )
                assert a.lac.retiming.labels == b.lac.retiming.labels

    def test_string_mode_override(self, tmp_path):
        from repro.core import plan_interconnect

        g = s27_graph()
        out = plan_interconnect(
            g,
            seed=27,
            max_iterations=1,
            floorplan_iterations=60,
            compile_cache="off",
        )
        assert out.config.compile_cache == "off"

    def test_invalid_mode_rejected(self):
        from repro.core import plan_interconnect
        from repro.errors import PlanningError

        with pytest.raises(PlanningError, match="compile_cache"):
            plan_interconnect(
                s27_graph(), max_iterations=1, compile_cache="sometimes"
            )
