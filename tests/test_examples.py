"""Smoke tests: the shipped examples must run end to end.

Each example is executed in-process (``runpy``) with ``sys.argv`` set
to its fastest configuration; only the quick ones run here — the
heavier sweeps are exercised by the benchmark suite.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, argv):
    old_argv = sys.argv
    sys.argv = [name] + argv
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (0, None), f"{name} exited with {exc.code}"
    finally:
        sys.argv = old_argv


class TestExamples:
    def test_quickstart(self, capsys):
        run_example("quickstart.py", [])
        out = capsys.readouterr().out
        assert "interconnect planning: s27" in out

    def test_lac_vs_minarea(self, capsys):
        run_example("lac_vs_minarea.py", [])
        out = capsys.readouterr().out
        assert "LAC" in out and "N_FOA=0" in out

    def test_bench_io(self, capsys):
        run_example("bench_io.py", [])
        out = capsys.readouterr().out
        assert "T_min" in out

    def test_verify_retiming(self, capsys):
        run_example("verify_retiming.py", ["30"])
        out = capsys.readouterr().out
        assert "EQUIVALENT" in out
        assert "NOT EQUIVALENT" not in out

    def test_tile_graph_demo(self, capsys):
        run_example("tile_graph_demo.py", ["s298"])
        out = capsys.readouterr().out
        assert "legend" in out

    def test_iscas_flow_list(self, capsys):
        run_example("iscas_flow.py", ["--list"])
        out = capsys.readouterr().out
        assert "s5378" in out
