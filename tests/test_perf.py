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
        # Recorded stages should dominate the wall clock. An unrecorded
        # stage lowers the coverage of every run, a host stall inside
        # the timed region that of one: judge the best of up to three.
        coverages = [doc["circuits"][0]["stage_coverage"]]
        while max(coverages) < 0.8 and len(coverages) < 3:
            rerun = run_bench(names=["s298"], quick=True)
            coverages.append(rerun["circuits"][0]["stage_coverage"])
        assert all(0.0 < c <= 1.5 for c in coverages), coverages
        assert max(coverages) >= 0.8, coverages

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


def _bench_doc(walls, t_clk=10.0, stage_seconds=None):
    """A synthetic bench document over ``walls`` (one suite total per
    run); more than one run makes it a repeated ``/5`` document."""
    from repro.perf.bench import _median_iqr

    median, iqr = _median_iqr(walls)
    doc = {
        "schema": BENCH_SCHEMA,
        "mode": "warm",
        "quick": True,
        "circuits": [
            {"name": "s298", "ok": True, "t_clk": t_clk, "n_foa": 3,
             "n_f": 40, "wall_seconds": median, "stages": []},
        ],
        "totals": {"wall_seconds": median},
    }
    if len(walls) > 1:
        doc["repeat"] = len(walls)
        doc["totals"].update(wall_iqr=iqr, wall_samples=list(walls))
        doc["stage_stats"] = {
            name: {"median": s, "iqr": 0.0}
            for name, s in (stage_seconds or {}).items()
        }
    return doc


class TestCompareNoise:
    """``compare_bench`` judges medians and flags a slowdown only when
    it is beyond both the threshold and the old side's IQR."""

    OLD = [8.0, 9.0, 10.0, 11.0, 12.0]  # median 10.0, IQR 2.0

    def test_slower_median_inside_old_iqr_passes(self):
        from repro.perf import compare_bench

        new = [w * 1.12 for w in self.OLD]  # +1.2 s: beyond 10%, inside IQR
        report, regressions = compare_bench(_bench_doc(self.OLD), _bench_doc(new))
        assert regressions == []
        assert "median of 5 vs 5 runs" in report[0]

    def test_slower_median_beyond_both_fails(self):
        from repro.perf import compare_bench

        new = [w * 1.25 for w in self.OLD]  # +2.5 s: beyond 10% and IQR
        _, regressions = compare_bench(_bench_doc(self.OLD), _bench_doc(new))
        assert len(regressions) == 1 and "IQR" in regressions[0]
        tight = [9.9, 10.0, 10.0, 10.0, 10.1]  # IQR 0: the threshold decides
        new = [w * 1.12 for w in tight]
        _, regressions = compare_bench(_bench_doc(tight), _bench_doc(new))
        assert len(regressions) == 1

    def test_one_run_documents_keep_the_plain_threshold(self):
        from repro.perf import compare_bench

        _, regressions = compare_bench(_bench_doc([10.0]), _bench_doc([11.2]))
        assert len(regressions) == 1
        _, regressions = compare_bench(_bench_doc([10.0]), _bench_doc([10.5]))
        assert regressions == []

    def test_result_drift_is_exact_under_noise(self):
        from repro.perf import compare_bench

        old = _bench_doc([8.0, 10.0, 12.0])
        new = _bench_doc([8.0, 10.0, 12.0], t_clk=10.5)
        _, regressions = compare_bench(old, new)
        assert regressions == ["s298: t_clk drifted 10.0 -> 10.5"]

    def test_stage_lines_use_medians(self):
        from repro.perf import compare_bench

        old = _bench_doc([9.0, 10.0, 11.0], stage_seconds={"route": 2.0})
        new = _bench_doc([9.0, 10.0, 11.0], stage_seconds={"route": 1.0})
        report, _ = compare_bench(old, new)
        (line,) = [l for l in report if "route" in l]
        assert "2.000s -> 1.000s (-50.0%)" in line

    def test_history_reads_repeated_documents(self, tmp_path):
        from repro.perf import history_report, load_history

        write_bench(_bench_doc([1.0], stage_seconds={}), tmp_path)
        write_bench(_bench_doc([9.0, 10.0, 11.0], stage_seconds={"route": 2.0}), tmp_path)
        docs = load_history(tmp_path)
        report, _ = history_report(docs)
        assert any("repro-bench/5" in line for line in report)
        assert any(line.startswith("route") for line in report)


class TestBenchRepeat:
    """``run_bench(repeat=N)`` with the per-circuit bench canned."""

    @staticmethod
    def _canned(monkeypatch, walls, t_clks):
        import repro.perf.bench as bench_mod

        calls = iter(zip(walls, t_clks))

        def bench_circuit(spec, quick=False, cache=None):
            wall, t_clk = next(calls)
            return {
                "name": spec.name, "ok": True, "t_clk": t_clk, "n_foa": 1,
                "n_f": 2, "n_wr": 1, "lac_seconds": 0.1, "ma_seconds": None,
                "wall_seconds": wall,
                "stages": [{"name": "route", "seconds": wall / 2, "calls": 1}],
            }

        monkeypatch.setattr(bench_mod, "bench_circuit", bench_circuit)

    def test_medians_and_iqr(self, monkeypatch):
        self._canned(monkeypatch, [1.0, 3.0, 2.0, 5.0], [7.0] * 4)
        doc = run_bench(names=["s298"], quick=True, repeat=4)
        assert doc["schema"] == "repro-bench/5" and doc["repeat"] == 4
        (entry,) = doc["circuits"]
        assert entry["wall_samples"] == [1.0, 3.0, 2.0, 5.0]
        assert entry["wall_seconds"] == 2.5
        totals = doc["totals"]
        assert totals["wall_seconds"] == 2.5
        assert totals["wall_iqr"] == 1.75  # quartiles 1.75 and 3.5
        assert doc["stage_stats"]["route"] == {"median": 1.25, "iqr": 0.875}

    def test_results_that_differ_between_repeats_fail_the_entry(self, monkeypatch):
        self._canned(monkeypatch, [1.0, 1.0], [7.0, 7.5])
        (entry,) = run_bench(names=["s298"], quick=True, repeat=2)["circuits"]
        assert entry["ok"] is False and "t_clk" in entry["error"]

    def test_repeat_below_one_is_rejected(self):
        with pytest.raises(ValueError):
            run_bench(names=["s298"], repeat=0)
