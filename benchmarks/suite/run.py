"""Run the benchmark: each workload in its own fresh child process.

    python3 benchmarks/suite/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace 0|1] [--out FILE]

Run it from the root of a checkout. The children get the checkout's
``src/`` on ``PYTHONPATH``, so the code measured is the code checked
out. For each workload (default: all of ``BENCHMARK.json``) it:

1. starts ``SETUP_PROBES`` fresh processes that only do the workload's
   set-up, and reports ``setup_s`` as the median over them and the
   timed run's own set-up;
2. runs ``workloads.py`` for ``--seconds`` of timed, untraced work and,
   with ``--trace 1``, one traced and one instrumented pass after it;
3. prints every metric as ``workload metric value unit``.

All results go to ``--out`` (default ``results/last.json`` beside this
file) and, with ``--trace 1``, each workload's spans to
``results/<workload>.spans.json``. The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``, each as ``{"value": ..., "unit": ...}``; with several
workloads each name is prefixed ``<workload>/``.

Exit status: 0 when every check passed, 1 when a result check failed,
2 when the benchmark could not run; then no result line is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
RESULTS = SUITE / "results"

#: Extra fresh processes per workload that only do its set-up.
SETUP_PROBES = 2
#: A run must end within 180 s: the children of one workload share this
#: budget, and a child that overruns it gets GRACE_S to stop its daemon.
CHILD_BUDGET_S = 160.0
GRACE_S = 10.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _stop(proc: subprocess.Popen) -> None:
    """SIGTERM unwinds ``workloads.py`` (its daemon drains); the process
    group is killed if that takes longer than GRACE_S."""
    proc.terminate()
    try:
        proc.wait(timeout=GRACE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()


def _child(args: List[str], deadline: float) -> dict:
    """Run ``workloads.py`` with ``args``; its last stdout line, parsed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, str(SUITE / "workloads.py"), *args],
        stdout=subprocess.PIPE,
        cwd=ROOT,
        env=env,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"workloads.py {' '.join(args)} overran {CHILD_BUDGET_S:g} s")
    finally:
        if proc.poll() is None:
            _stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"workloads.py {' '.join(args)} exited {proc.returncode}")
    lines = out.decode("utf-8").strip().splitlines()
    if not lines:
        raise BenchError(f"workloads.py {' '.join(args)} printed no result")
    return json.loads(lines[-1])


def _with_units(values: Dict[str, float], declared: List[dict], kind: str) -> dict:
    """``values`` as ``{name: {"value", "unit"}}``, in BENCHMARK.json order;
    a metric missing or undeclared fails the run."""
    names = [m["name"] for m in declared]
    missing = sorted(set(names) - set(values))
    extra = sorted(set(values) - set(names))
    if missing or extra:
        raise BenchError(
            f"{kind} metrics differ from BENCHMARK.json: "
            f"missing {missing or 'none'}, undeclared {extra or 'none'}"
        )
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def run_workload(spec: dict, name: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + CHILD_BUDGET_S
    probes = [_child([name, "--setup-only"], deadline) for _ in range(SETUP_PROBES)]
    args = [name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    if trace:
        RESULTS.mkdir(parents=True, exist_ok=True)
        args += ["--spans", str(RESULTS / f"{name}.spans.json")]
    doc = _child(args, deadline)
    setup = [p["setup_s"] for p in probes] + [doc["metrics"]["setup_s"]]
    raw_setup = [p["raw_setup_s"] for p in probes] + [doc["samples"]["raw_setup_s"]]
    metrics = dict(doc["metrics"], setup_s=statistics.median(setup))
    return {
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "checks": doc["checks"],
        "end_to_end": _with_units(metrics, spec["end_to_end"], "end-to-end"),
        "per_layer": (
            _with_units(doc["per_layer"], spec["per_layer"], "per-layer") if trace else None
        ),
        "samples": dict(doc["samples"], setup_s=setup, raw_setup_s=raw_setup),
        "elapsed_s": time.monotonic() - start,
    }


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="benchmarks/suite/run.py")
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=RESULTS / "last.json")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a checkout", file=sys.stderr)
        return 2

    runs = {}
    try:
        for name in args.workload or names:
            runs[name] = run_workload(spec, name, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for name, run in runs.items():
        for kind in ("end_to_end", "per_layer"):
            for metric, m in (run[kind] or {}).items():
                print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
        for check in run["checks"]:
            print(f"{name} CHECK FAILED {check}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(
        json.dumps(
            {
                "schema": "repro-suite-bench/1",
                "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "host": {
                    "python": platform.python_version(),
                    "machine": platform.machine(),
                    "nproc": os.cpu_count(),
                },
                "workloads": runs,
            },
            indent=1,
        )
        + "\n"
    )

    kind = "per_layer" if args.trace else "end_to_end"
    if len(runs) == 1:
        metrics = next(iter(runs.values()))[kind]
    else:
        metrics = {f"{n}/{k}": m for n, run in runs.items() for k, m in run[kind].items()}
    correct = all(run["correct"] for run in runs.values())
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(run["attempted"] for run in runs.values()),
                "failed": sum(run["failed"] for run in runs.values()),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
