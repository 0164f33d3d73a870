"""Tests for the compiled-circuit cache (:mod:`repro.compile`):
fingerprint sensitivity, artifact correctness against the uncompiled
paths, disk roundtrip and corruption handling, cache modes, and
bit-identical planner results cached vs uncached."""

import copy
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.compile import (
    COMPILE_SCHEMA,
    CompileCache,
    CompiledCircuit,
    compile_fingerprint,
)
from repro.errors import InfeasiblePeriodError
from repro.netlist import graph_from_dict, graph_to_dict, random_circuit, s27_graph
from repro.retime import (
    candidate_periods,
    clock_period,
    min_period_retiming,
    wd_matrices,
)
from repro.tech.params import DEFAULT_TECH
from tests.oracles.constraints import pairs_exceeding_arrays, prune_redundant_arrays


def _replay_fields(artifact):
    """The persisted record as comparable plain values."""
    return {
        "order": artifact.order,
        "scalars": (
            artifact.schema,
            artifact.circuit,
            artifact.tech,
            artifact.n,
            artifact.t_init,
            artifact.max_delay,
            artifact.n_candidates,
            artifact.t_min,
        ),
        "conn": (
            artifact.conn_u.tolist(),
            artifact.conn_v.tolist(),
            artifact.conn_w.tolist(),
        ),
        "delays": artifact.delays.tolist(),
        "components": artifact.components,
        "pairs": {
            key: table.tolist() for key, table in artifact.clock_pair_sets.items()
        },
        "witness": artifact.t_min_labels,
    }


@pytest.fixture()
def graph():
    return random_circuit("cc", n_units=30, n_ffs=18, seed=9)


class TestFingerprint:
    def test_deterministic(self, graph):
        assert compile_fingerprint(graph) == compile_fingerprint(graph)
        assert len(compile_fingerprint(graph)) == 64

    def test_circuit_perturbations_change_digest(self, graph):
        base = compile_fingerprint(graph)
        doc = graph_to_dict(graph)
        next(u for u in doc["units"] if u["kind"] == "logic")["delay"] += 0.5
        heavier = graph_from_dict(doc)
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

    def test_digests_unchanged_by_the_retired_switch(self, graph):
        # Digests from when the constraint-pruning switch was hashed
        # (at its default, True): stored artifacts keep their names.
        assert compile_fingerprint(s27_graph()) == (
            "89a8719f6d6bba8636398bc1e0f524313ecf0a067dcacf01c7b00dc9f9645801"
        )
        assert compile_fingerprint(graph) == (
            "4d19a56af7fe1125926598da1eb874a5b926b52dc9e3cc4f398fdeda8c2acbf5"
        )


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
        assert np.array_equal(art.candidates, candidate_periods(wd))
        assert art.n_candidates == len(art.candidates)

    def test_clock_pairs_match_list_pipeline(self, graph):
        art = CompiledCircuit.compile(graph)
        wd = art.wd
        period = 0.6 * art.t_init + 0.4 * art.max_delay
        table = art.clock_pairs(period)
        rows, cols, bounds = table["u"], table["v"], table["bound"]
        all_r, all_c = pairs_exceeding_arrays(wd, period)
        kept_r, kept_c = prune_redundant_arrays(wd, period, all_r, all_c)
        expected = list(zip(kept_r.tolist(), kept_c.tolist()))
        assert list(zip(rows.tolist(), cols.tolist())) == expected
        assert bounds.tolist() == [int(wd.w[i, j]) - 1 for i, j in expected]

    def test_clock_pairs_memoise_and_mark_dirty(self, graph):
        art = CompiledCircuit.compile(graph)
        assert not art.dirty
        period = 0.7 * art.t_init + 0.3 * art.max_delay
        first = art.clock_pairs(period)
        assert art.dirty
        assert art.clock_pairs(period) is first

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
        # The replay record round-trips field for field (the dataclass
        # equality skips the memory-only search inputs) ...
        assert _replay_fields(restored) == _replay_fields(original)
        # ... and the search inputs, rebuilt from the graph, are equal.
        assert restored.wd is None
        restored.rebuild_search_inputs(graph, "min_period")
        assert np.array_equal(restored.candidates, original.candidates)
        for field in ("w", "d", "edge_src", "edge_dst", "edge_w"):
            assert np.array_equal(
                getattr(restored.wd, field), getattr(original.wd, field)
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

    def test_clear_sweeps_staging_files(self, graph, tmp_path):
        """A writer killed mid-put leaves a staging file; clear removes it."""
        cache = CompileCache(tmp_path, mode="auto")
        cache.get_or_compile(graph)
        staging = tmp_path / ".abc.cc.tmp.4242.0"
        staging.write_bytes(b"partial")
        assert cache.clear() == 1
        assert not staging.exists()
        assert list(tmp_path.iterdir()) == []


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


class TestSchemaUpgrade:
    def test_v1_file_is_recompiled(self, graph, tmp_path, monkeypatch):
        """An artifact written by the previous schema (``repro-compile/3``,
        whose record has no connection weights or unit delays) is
        recompiled, never unpickled into a solve that would crash on
        the missing fields."""
        import repro.compile.artifact as artifact_mod
        import repro.compile.cache as cache_mod

        assert COMPILE_SCHEMA == "repro-compile/4"
        fingerprint = compile_fingerprint(graph)
        with monkeypatch.context() as m:
            m.setattr(artifact_mod, "COMPILE_SCHEMA", "repro-compile/3")
            assert compile_fingerprint(graph) != fingerprint
        stale = CompiledCircuit.compile(graph)
        period = clock_period(graph, stale.wd) - 1e-6
        for field in ("conn_w", "delays"):
            del stale.__dict__[field]
        stale.schema = "repro-compile/3"
        with pytest.raises(AttributeError, match="conn_w"):
            stale.check_graph(graph)
        # Worst case: a /3 payload sitting under the /4 file name.
        with monkeypatch.context() as m:
            m.setattr(cache_mod, "COMPILE_SCHEMA", "repro-compile/3")
            path = CompileCache(tmp_path, mode="auto").put(stale)
        cache = CompileCache(tmp_path, mode="auto")
        artifact, hit = cache.get_or_compile(graph)
        assert not hit
        assert (tmp_path / "quarantine" / path.name).exists()
        assert artifact.schema == COMPILE_SCHEMA
        assert artifact.clock_pairs(period).size > 0


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

    def test_invalid_mode_rejected(self):
        from repro.core import plan_interconnect

        with pytest.raises(ValueError, match="sometimes"):
            CompileCache(mode="sometimes")
        # A mode string is not a cache: the cache rides in the RunContext.
        with pytest.raises(TypeError, match="compile_cache"):
            plan_interconnect(s27_graph(), max_iterations=1, compile_cache="off")


class TestDeterministicBytes:
    def test_artifact_bytes_independent_of_hash_seed(self, tmp_path):
        """Two interpreters with different string hashing write
        byte-identical artifacts, so a writer holding an identical
        file can skip the write whichever process made it."""
        src = Path(__file__).resolve().parent.parent / "src"
        stores = []
        for seed in ("0", "1"):
            store = tmp_path / f"cc{seed}"
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "plan", "s27", "--quick",
                 "--cache-dir", str(store)],
                env=dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed),
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert proc.returncode in (0, 1), proc.stderr
            stores.append({p.name: p.read_bytes() for p in store.glob("*.cc")})
        assert stores[0] and stores[0] == stores[1]
