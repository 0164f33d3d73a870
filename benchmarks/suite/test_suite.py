"""Tests of the benchmark harness itself, on small inputs (under a minute).

    PYTHONPATH=src python -m pytest benchmarks/suite -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import workloads
from repro.core import planner
from repro.experiments.circuits import TABLE1_SMOKE

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")

S298_QUICK = workloads.PlannerWorkload(
    "s298-quick",
    tuple(spec for spec in TABLE1_SMOKE if spec.name == "s298"),
    "table1-quick",
    workloads.QUICK,
)


@pytest.fixture(scope="module")
def traced_run():
    """One untimed-length run of s298 --quick with its traced passes, and
    the planner's globals as they were before it."""
    before = dict(vars(planner))
    doc, spans = workloads.run_planner(S298_QUICK, seed=0, seconds=0.0, trace=True)
    return before, doc, spans


def test_emitted_metric_names_are_declared(traced_run):
    _before, doc, _spans = traced_run
    assert doc["correct"], doc["checks"]
    assert set(doc["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(doc["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(metric["name"]), metric["name"]


def test_traced_pass_restores_planner_globals(traced_run):
    before, _doc, spans = traced_run
    after = dict(vars(planner))
    assert after.keys() == before.keys()
    assert [name for name in before if after[name] is not before[name]] == []
    assert any(span["name"] == "retime/lac" for span in spans)


def test_traced_pass_covers_the_plan(traced_run):
    _before, doc, _spans = traced_run
    assert doc["per_layer"]["bench.coverage"] >= 0.90


def test_missing_planner_name_fails_loudly(monkeypatch):
    monkeypatch.delattr(planner, "lac_retiming")
    with pytest.raises(RuntimeError, match="lac_retiming"):
        with layers.traced(layers.SpanRecorder()):
            pass


def _checkout(tmp_path: Path, with_src: bool = True) -> Path:
    """A copy of what the benchmark needs: BENCHMARK.json, this directory
    and (optionally) the source tree, linked."""
    root = tmp_path / "checkout"
    shutil.copytree(
        SUITE,
        root / "benchmarks" / "suite",
        ignore=shutil.ignore_patterns("results", ".work", "__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", root)
    if with_src:
        (root / "src").symlink_to(ROOT / "src")
    return root


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("perturb", [False, True], ids=["golden", "perturbed"])
def test_command_checks_results_against_golden(tmp_path, perturb):
    root = _checkout(tmp_path)
    if perturb:
        golden_path = root / "benchmarks" / "suite" / "golden.json"
        golden = json.loads(golden_path.read_text())
        for row in golden["table1-quick"].values():
            row["n_f"] += 1
        golden_path.write_text(json.dumps(golden))
    proc = _run(root, "--workload", "serve-burst", "--seconds", "1")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    if perturb:
        assert proc.returncode == 1
        assert not result["correct"] and result["failed"] >= 1
    else:
        assert proc.returncode == 0, proc.stderr
        assert result["correct"] and result["failed"] == 0


def test_command_without_source_fails_without_result(tmp_path):
    proc = _run(_checkout(tmp_path, with_src=False), "--workload", "serve-burst")
    assert proc.returncode != 0
    assert proc.stdout == ""
