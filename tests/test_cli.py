"""Tests for the ``python -m repro`` command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main


class TestCLI:
    def test_circuits_lists_suite(self, capsys):
        assert main(["circuits"]) == 0
        out = capsys.readouterr().out
        assert "s298" in out and "s5378" in out

    def test_plan_s27(self, capsys):
        code = main(["plan", "s27"])
        out = capsys.readouterr().out
        assert "interconnect planning: s27" in out
        assert code in (0, 1)  # 1 = not converged, still a valid run

    def test_verify_reports_equivalence(self, capsys):
        assert main(["verify"]) == 0
        assert "EQUIVALENT" in capsys.readouterr().out

    def test_unknown_circuit_exits_2(self, capsys):
        assert main(["plan", "s9999"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # one-line message, no traceback
        assert "unknown circuit" in err and "s9999" in err

    def test_table1_unknown_circuit_exits_2(self, capsys):
        assert main(["table1", "s9999"]) == 2
        assert "s9999" in capsys.readouterr().err

    def test_plan_flow_error_exits_2(self, capsys, monkeypatch):
        from repro import __main__ as cli
        from repro.errors import PlanningError

        def _boom(*_a, **_k):
            raise PlanningError("synthetic flow failure")

        monkeypatch.setattr("repro.core.plan_interconnect", _boom)
        assert main(["plan", "s27"]) == 2
        err = capsys.readouterr().err
        assert "synthetic flow failure" in err
        assert cli.EXIT_ERROR == 2

    def test_infeasible_distinguished_from_not_converged(self, monkeypatch):
        """Exit 3 = infeasible target period, exit 1 = not converged."""
        import repro.core as core
        from repro import __main__ as cli

        class _It:
            infeasible = True

        class _Outcome:
            converged = False
            final = _It()

            def report(self):
                return "stub report"

        monkeypatch.setattr(core, "plan_interconnect", lambda *a, **k: _Outcome())
        assert main(["plan", "s27"]) == cli.EXIT_INFEASIBLE
        _It.infeasible = False
        assert main(["plan", "s27"]) == cli.EXIT_NOT_CONVERGED

    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            main([])


class TestCachePrewarm:
    """``repro cache prewarm`` plans each circuit once into the store."""

    def test_prewarm_then_already_warm(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cc")
        args = ["cache", "prewarm", "s298", "--quick", "--cache-dir", cache_dir]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "s298: compiled" in first and "artifact(s)" in first
        assert main(args) == 0
        assert "s298: already warm" in capsys.readouterr().out
        assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
        assert "s298" in capsys.readouterr().out

    def test_unknown_circuit_exits_2(self, capsys, tmp_path):
        code = main(
            ["cache", "prewarm", "s9999", "--cache-dir", str(tmp_path / "cc")]
        )
        assert code == 2
        assert "s9999" in capsys.readouterr().err


class TestVerifyCLI:
    """End-to-end coverage of ``plan --verify`` / ``verify <target>``."""

    @pytest.fixture(scope="class")
    def ckpt_dir(self, tmp_path_factory):
        import contextlib
        import io

        root = tmp_path_factory.mktemp("cli-vckpt")
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(
                ["plan", "s27", "--quick", "--verify",
                 "--checkpoint-dir", str(root)]
            )
        assert code in (0, 1)
        assert "verification:" in buffer.getvalue()
        return root

    def test_audit_clean_checkpoint(self, ckpt_dir, capsys):
        assert main(["verify", str(ckpt_dir)]) == 0
        out = capsys.readouterr().out
        assert "s27" in out and "all pass" in out

    def test_injected_fault_exits_5(self, ckpt_dir, capsys):
        code = main(
            ["verify", str(ckpt_dir), "--inject-result-fault", "retime_label"]
        )
        captured = capsys.readouterr()
        assert code == 5
        assert "retime_label" in captured.err
        assert "retiming" in captured.out  # owning checker named

    def test_outcome_json_round_trip(self, ckpt_dir, tmp_path, capsys):
        path = tmp_path / "outcome.json"
        code = main(
            ["plan", "s27", "--quick", "--verify",
             "--outcome-json", str(path)]
        )
        capsys.readouterr()
        assert code in (0, 1) and path.exists()
        assert main(["verify", str(path)]) == 0
        assert "all pass" in capsys.readouterr().out

    def test_tree_outcome_json_exits_2(self, tmp_path, capsys):
        import json

        path = tmp_path / "outcome.json"
        main(["plan", "s27", "--quick", "--outcome-json", str(path)])
        doc = json.loads(path.read_text())
        doc["config"]["repeater_backend"] = "tree"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(path)]) == 2
        assert "repeater_backend" in capsys.readouterr().err

    def test_missing_target_exits_2(self, tmp_path, capsys):
        assert main(["verify", str(tmp_path / "nope")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_inject_without_target_exits_2(self, capsys):
        code = main(["verify", "--inject-result-fault", "retime_label"])
        assert code == 2
        assert "target" in capsys.readouterr().err

    def test_unknown_fault_kind_exits_2(self, ckpt_dir, capsys):
        code = main(
            ["verify", str(ckpt_dir), "--inject-result-fault", "bitrot"]
        )
        assert code == 2
        assert "unknown result fault kind" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--workers", "0"),
        ("--workers", "-2"),
        ("--queue-limit", "0"),
        ("--max-attempts", "0"),
        ("--deadline", "-5"),
        ("--deadline", "0"),
        ("--heartbeat-timeout", "0"),
        ("--drain-grace", "-1"),
        ("--poll-interval", "0"),
    ],
)
def test_serve_rejects_out_of_range_options(tmp_path, capsys, monkeypatch, flag, value):
    def _bind(*_a, **_k):
        raise AssertionError("socket bound despite a bad option")

    monkeypatch.setattr("repro.serve.server.build_http_server", _bind)
    sock, spool = tmp_path / "s.sock", tmp_path / "spool"
    argv = ["serve", "--socket", str(sock), "--spool", str(spool), flag, value]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and flag in err
    assert not spool.exists()


RESULTS_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "results"


def _non_bench_json(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"schema": "repro-trace/1"}))
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        lambda tmp: ["bench", "--compare", str(tmp / "missing.json"),
                     str(RESULTS_DIR / "BENCH_4.json")],
        lambda tmp: ["bench", "--compare", _non_bench_json(tmp),
                     str(RESULTS_DIR / "BENCH_4.json")],
        lambda tmp: ["plan", "s27", "--iterations", "0"],
        lambda tmp: ["plan", "s27", "--stage-timeout", "0"],
        lambda tmp: ["table1", "s298", "--inject-fault", "garbage"],
        lambda tmp: ["bench", "s9999", "--out", str(tmp)],
        lambda tmp: ["bench", "s298", "--repeat", "0", "--out", str(tmp)],
    ],
    ids=["compare-missing", "compare-non-bench", "iterations-0",
         "stage-timeout-0", "inject-fault-garbage", "bench-unknown-circuit",
         "bench-repeat-0"],
)
def test_bad_input_is_a_usage_error(tmp_path, capsys, monkeypatch, argv):
    """Unusable input exits 2 with one ``error:`` line before any work
    runs — never a traceback, never a code the command's contract reads
    as a result (1 = regression / not converged / all circuits failed)."""

    def _ran(*_a, **_k):
        raise AssertionError("work ran despite a bad option")

    monkeypatch.setattr("repro.core.plan_interconnect", _ran)
    monkeypatch.setattr("repro.experiments.table1.run_table1_resilient", _ran)
    assert main(argv(tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert "REGRESSION" not in captured.out


_SERVE_IMPORT_PROBE = """
import sys
import repro.serve.server as server
from repro.__main__ import main

def _no_bind(*_a, **_k):
    raise OSError("import probe: not binding")

server.build_http_server = _no_bind
code = main(["serve", "--socket", sys.argv[1], "--spool", sys.argv[2]])
heavy = ("repro.experiments.table1", "repro.perf.bench")
print(code, *[name for name in heavy if name in sys.modules])
"""


def test_serve_start_up_skips_the_harnesses(tmp_path):
    """``repro serve`` start-up imports neither the Table-1 nor the bench
    harness: the command modules load inside their own ``_cmd_*``."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _SERVE_IMPORT_PROBE,
         str(tmp_path / "s.sock"), str(tmp_path / "spool")],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.stdout.split() == ["2"], proc.stdout + proc.stderr
    assert "cannot bind" in proc.stderr


class TestBrokenPipe:
    """A reader that exits before the output is written (``trace
    summarize T | head``) ends the command quietly with status 141; a
    broken pipe that is not stdout's still raises."""

    SRC = Path(__file__).resolve().parent.parent / "src"

    @pytest.fixture(scope="class")
    def trace_file(self, tmp_path_factory):
        import contextlib
        import io

        path = tmp_path_factory.mktemp("cli-pipe") / "t.jsonl"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["plan", "s27", "--quick", "--trace", str(path)]) in (0, 1)
        return path

    def _run_into_closed_pipe(self, args):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader has already exited
        try:
            return subprocess.run(
                [sys.executable, *args],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=dict(os.environ, PYTHONPATH=str(self.SRC)),
                text=True,
                timeout=60,
            )
        finally:
            os.close(write_end)

    @pytest.mark.parametrize("command", ["summarize", "metrics", "validate"])
    def test_trace_into_exited_reader(self, trace_file, command):
        proc = self._run_into_closed_pipe(
            ["-m", "repro", "trace", command, str(trace_file)]
        )
        assert proc.stderr == ""
        assert proc.returncode == 141

    def test_other_broken_pipe_still_raises(self):
        # stdout is a live pipe; the command's own pipe breaks.
        probe = (
            "import sys; import repro.__main__ as m\n"
            "def cmd(_args): raise BrokenPipeError(32, 'socket closed')\n"
            "m._cmd_circuits = cmd\n"
            "sys.exit(m.main(['circuits']))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=str(self.SRC)),
            text=True,
            timeout=60,
        )
        assert proc.returncode == 1
        assert "BrokenPipeError: [Errno 32] socket closed" in proc.stderr
