"""Tests for the perf instrumentation and the bench runner."""

import json

import pytest

from repro.perf import (
    BENCH_SCHEMA,
    PerfRecorder,
    next_bench_path,
    run_bench,
    write_bench,
)


class TestPerfRecorder:
    def test_add_accumulates(self):
        perf = PerfRecorder()
        perf.add("route", 1.0)
        perf.add("route", 0.5)
        perf.add("tiles", 0.25)
        stages = {t.name: t for t in perf.stages}
        assert stages["route"].seconds == 1.5
        assert stages["route"].calls == 2
        assert stages["tiles"].calls == 1

    def test_stage_context_manager_times(self):
        perf = PerfRecorder()
        with perf.stage("work"):
            pass
        (timing,) = perf.stages
        assert timing.name == "work"
        assert timing.calls == 1
        assert timing.seconds >= 0.0

    def test_total_excludes_nested_stages(self):
        perf = PerfRecorder()
        perf.add("retime", 2.0)
        perf.add("retime/lac", 1.5)  # a view into "retime", not extra time
        assert perf.total_seconds == 2.0

    def test_to_dict_preserves_order(self):
        perf = PerfRecorder()
        perf.add("b", 1.0)
        perf.add("a", 1.0)
        d = perf.to_dict()
        assert [s["name"] for s in d["stages"]] == ["b", "a"]
        assert d["total_seconds"] == 2.0

    def test_ingest_outcome_collects_planner_stages(self):
        from repro.core.planner import plan_interconnect
        from repro.netlist import s27_graph

        perf = PerfRecorder()
        plan_interconnect(
            s27_graph(),
            seed=1,
            whitespace=0.4,
            max_iterations=1,
            floorplan_iterations=60,
            perf=perf,
        )
        names = {t.name for t in perf.stages}
        # ledger stages (iteration stages carry their scope) plus the
        # retiming sub-timings
        assert {"partition", "floorplan"} <= names
        assert any(n.endswith("tiles") for n in names)
        assert any(n.endswith("route") for n in names)
        # the T_min pipeline is recorded stage by stage
        assert any(n.endswith("compile") for n in names)
        assert any(n.endswith("min_period") for n in names)
        assert "retime/constraints" in names
        assert "retime/lac" in names
        assert perf.total_seconds > 0.0

    def test_planner_stages_counted_exactly_once(self):
        """Dedupe regression: the planner ingests timing through spans
        only — each stage must appear with exactly the call count of
        its actual executions, never doubled by a second ingest route."""
        from repro.core.planner import plan_interconnect
        from repro.netlist import s27_graph

        perf = PerfRecorder()
        outcome = plan_interconnect(
            s27_graph(),
            seed=1,
            whitespace=0.4,
            max_iterations=1,
            floorplan_iterations=60,
            perf=perf,
        )
        calls = {t.name: t.calls for t in perf.stages}
        assert calls["partition"] == 1
        assert calls["floorplan"] == 1
        for stage in ("tiles", "route", "repeater", "expand", "compile",
                      "min_period", "retime"):
            assert calls[f"iteration 1 · {stage}"] == 1
        assert calls["retime/constraints"] == 1
        assert calls["retime/min_area"] == 1
        assert calls["retime/lac"] == 1
        # one timing per weighted min-area round, exactly
        assert calls["retime/lac/rounds"] == outcome.final.lac.n_wr

    def test_ingest_spans_skips_structural_spans(self):
        class FakeSpan:
            def __init__(self, name, attrs, elapsed):
                self.name = name
                self.attrs = attrs
                self.elapsed = elapsed

        perf = PerfRecorder()
        perf.ingest_spans(
            [
                FakeSpan("plan", {}, 9.0),
                FakeSpan("iteration", {"index": 1}, 8.0),
                FakeSpan("route", {"kind": "stage", "scope": "iteration 1"}, 1.0),
                FakeSpan("feas/probe", {"t": 2.0}, 0.5),
                FakeSpan("lac/round", {"round": 1}, 0.25),
            ]
        )
        names = {t.name for t in perf.stages}
        assert names == {"iteration 1 · route", "retime/lac/rounds"}



class TestBenchNumbering:
    def test_next_path_starts_at_zero(self, tmp_path):
        assert next_bench_path(tmp_path).name == "BENCH_0.json"

    def test_next_path_skips_taken_integers(self, tmp_path):
        (tmp_path / "BENCH_0.json").write_text("{}")
        (tmp_path / "BENCH_2.json").write_text("{}")
        assert next_bench_path(tmp_path).name == "BENCH_1.json"

    def test_write_bench_round_trips(self, tmp_path):
        path = write_bench({"schema": BENCH_SCHEMA}, tmp_path)
        assert path.name == "BENCH_0.json"
        assert json.loads(path.read_text())["schema"] == BENCH_SCHEMA
        assert write_bench({}, tmp_path).name == "BENCH_1.json"


class TestBenchRunner:
    @pytest.fixture(scope="class")
    def doc(self):
        return run_bench(names=["s298"], quick=True)

    def test_document_schema(self, doc):
        assert doc["schema"] == BENCH_SCHEMA
        assert doc["mode"] == "warm"
        assert doc["quick"] is True
        assert len(doc["circuits"]) == 1
        totals = doc["totals"]
        assert totals["wall_seconds"] > 0.0
        assert totals["n_wr"] >= 1

    def test_circuit_entry_fields(self, doc):
        entry = doc["circuits"][0]
        assert entry["name"] == "s298"
        assert entry["ok"] is True
        assert entry["n_wr"] >= 1
        assert len(entry["lac_round_seconds"]) == entry["n_wr"]
        assert entry["solver"]["engine"] in ("highs", "linprog")
        assert entry["solver"]["bellman_ford_runs"] == 1
        stage_names = {s["name"] for s in entry["stages"]}
        assert "retime/lac" in stage_names
        assert "build" in stage_names
        assert any(n.endswith("min_period") for n in stage_names)
        assert "retime/constraints" in stage_names

    def test_stage_coverage_recorded(self, doc):
        entry = doc["circuits"][0]
        assert 0.0 < entry["stage_coverage"] <= 1.5
        # recorded stages should dominate the wall clock
        assert entry["stage_coverage"] >= 0.8

    def test_entries_are_json_serialisable(self, doc):
        json.dumps(doc)


class TestStageCoverageFlag:
    """The --min-stage-coverage CLI floor (bench logic is canned)."""

    @staticmethod
    def _canned(coverage):
        return {
            "schema": BENCH_SCHEMA,
            "mode": "warm",
            "quick": True,
            "circuits": [
                {
                    "name": "s298",
                    "ok": True,
                    "stage_coverage": coverage,
                    "lac_seconds": 0.1,
                    "n_wr": 1,
                    "wall_seconds": 0.2,
                }
            ],
            "totals": {
                "wall_seconds": 0.2,
                "lac_seconds": 0.1,
                "ma_seconds": 0.0,
                "n_wr": 1,
            },
        }

    def test_floor_violation_fails(self, tmp_path, monkeypatch, capsys):
        import repro.perf.bench as bench_mod
        from repro.__main__ import main

        monkeypatch.setattr(
            bench_mod, "run_bench", lambda **kw: self._canned(0.5)
        )
        rc = main(
            ["bench", "--out", str(tmp_path), "--min-stage-coverage", "0.8"]
        )
        assert rc == 1
        assert "below" in capsys.readouterr().out

    def test_floor_met_passes(self, tmp_path, monkeypatch):
        import repro.perf.bench as bench_mod
        from repro.__main__ import main

        monkeypatch.setattr(
            bench_mod, "run_bench", lambda **kw: self._canned(0.93)
        )
        rc = main(
            ["bench", "--out", str(tmp_path), "--min-stage-coverage", "0.8"]
        )
        assert rc == 0

    def test_no_floor_ignores_coverage(self, tmp_path, monkeypatch):
        import repro.perf.bench as bench_mod
        from repro.__main__ import main

        monkeypatch.setattr(
            bench_mod, "run_bench", lambda **kw: self._canned(0.01)
        )
        assert main(["bench", "--out", str(tmp_path)]) == 0
