"""One benchmark workload, run in a fresh process by ``run.py``.

    python3 benchmarks/suite/workloads.py NAME --seed N --seconds S --trace 0|1 [--spans FILE]
    python3 benchmarks/suite/workloads.py NAME --setup-only

Prints one JSON document as its last stdout line: ``correct``,
``attempted``, ``failed``, the failed ``checks``, the end-to-end
``metrics`` (from untraced passes only; times scaled to the
reference host by :mod:`hostspeed`), the raw ``samples`` behind them and, with
``--trace 1``, the ``per_layer`` metrics from separate traced and
instrumented passes, in measured seconds. ``--setup-only`` does the
workload's set-up once and prints ``{"setup_s", "raw_setup_s"}``;
``run.py`` reports the median over several fresh processes. Metric
units live in ``BENCHMARK.json``; ``run.py`` attaches them.

The seed only orders the inputs (circuits in a pass, jobs in a burst),
so every seed does the same work and every result has a golden value.
"""

import os
import time

_T0 = time.perf_counter()  # set-up counts from here, imports included

#: The CPUs this process may use.
ALL_CPUS = frozenset(os.sched_getaffinity(0))
if __name__ == "__main__":
    # The CPUs of a shared host drift in speed apart from each other, so
    # the reference kernel must run on the CPU the timed work runs on:
    # this process, and the serve daemon and workers it starts, keep to
    # one CPU.
    os.sched_setaffinity(0, {min(ALL_CPUS)})

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import json
import multiprocessing
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import layers
import repro
from hostspeed import HostSpeed, scale
from repro.compile import CompileCache
from repro.core import plan_interconnect
from repro.errors import ReproError, ServeError
from repro.experiments.circuits import (
    TABLE1_CIRCUITS,
    TABLE1_SMOKE,
    CircuitSpec,
    load_circuit,
)
from repro.ioutil import atomic_write
from repro.obs import MetricsRegistry
from repro.perf import PerfRecorder
from repro.serve.client import ServeClient
from repro.verify import verify_outcome

SUITE = Path(__file__).resolve().parent
WORK = SUITE / ".work"
PRIMED = WORK / "primed"
GOLDEN = SUITE / "golden.json"

#: What the CLI's ``--quick`` sets.
QUICK = {"floorplan_iterations": 300, "max_iterations": 1}

#: 1.5x the largest Table-1 stand-in (s5378, 320 units). At this size
#: LAC runs to its stale limit and is the largest layer of a warm pass,
#: while the cold prime still fits the per-run time budget.
SYNTH_LARGE = CircuitSpec(
    "synth480", 480, 78, seed=640, real_gates=0, real_ffs=0, whitespace=0.45
)


@dataclasses.dataclass
class PlannerWorkload:
    """Closed-loop serial passes of ``plan_interconnect`` over ``circuits``."""

    name: str
    circuits: Tuple[CircuitSpec, ...]
    golden: str  # key into golden.json
    overrides: Mapping[str, object] = dataclasses.field(default_factory=dict)
    warm: bool = False  # plan against a primed on-disk compile cache


PLANNER_WORKLOADS = {
    "table1-cold": PlannerWorkload("table1-cold", tuple(TABLE1_CIRCUITS), "table1"),
    "table1-warm": PlannerWorkload(
        "table1-warm", tuple(TABLE1_CIRCUITS), "table1", warm=True
    ),
    "synth-large": PlannerWorkload(
        "synth-large", (SYNTH_LARGE,), "synth-large", QUICK, warm=True
    ),
}

#: The in-process control that gives serve-burst its harness-side
#: per-layer numbers: the burst's circuits and config, planned directly.
SERVE_CONTROL = PlannerWorkload("serve-control", tuple(TABLE1_SMOKE), "table1-quick", QUICK)

#: One job at a time, on the one CPU the daemon inherits from this
#: process: no job shares it with another, and the reference kernel
#: timed here between jobs runs where the jobs ran.
SERVE_WORKERS = 1
POLL_S = 0.02
#: Reference-kernel samples (about 15 ms each): after set-up, and
#: between timed plans or serve jobs.
SETUP_REF_SAMPLES = 20
PLAN_REF_SAMPLES = 5
READY_TIMEOUT_S = 30.0
JOB_TIMEOUT_S = 30.0
TERMINAL = ("done", "failed", "canceled")


class Checker:
    """Holds every result to its golden value and to every earlier pass."""

    def __init__(self, golden: Mapping[str, dict]):
        self.golden = golden
        self.rows: Dict[str, dict] = {}
        self.failures: List[str] = []

    def fail(self, circuit: str, problem: str) -> None:
        self.failures.append(f"{circuit}: {problem}")

    def check(self, circuit: str, row: dict, report=None) -> None:
        if report is not None and not report.ok:
            self.fail(circuit, f"certificate failed: {report.summary()}")
        elif self.rows.setdefault(circuit, row) != row:
            self.fail(circuit, f"{row} disagrees with {self.rows[circuit]}")
        elif circuit in self.golden and self.golden[circuit] != row:
            self.fail(circuit, f"{row} drifted from golden {self.golden[circuit]}")

    def totals(self) -> Dict[str, float]:
        return {
            "n_foa_total": sum(r["n_foa"] for r in self.rows.values()),
            "n_f_total": sum(r["n_f"] for r in self.rows.values()),
        }


def _golden(key: str) -> Dict[str, dict]:
    return json.loads(GOLDEN.read_text())[key]


def outcome_row(outcome) -> dict:
    """The Table-1 fields of a plan: first iteration, LAC columns."""
    first = outcome.first
    return {
        "t_clk": first.t_clk,
        "n_foa": first.lac.report.n_foa,
        "n_f": first.lac.report.n_f,
    }


def _peak_rss_mb(*who: int) -> float:
    """Largest resident set of ``who`` (``RUSAGE_SELF`` and/or
    ``RUSAGE_CHILDREN``, the waited-for descendants), in MiB."""
    return max(resource.getrusage(w).ru_maxrss for w in who) / 1024


def _pct(value: float, base: float) -> float:
    return 100.0 * (value - base) / base


@contextlib.contextmanager
def _no_span(name: str, **attrs):
    yield {}


def _plan_kwargs(spec: CircuitSpec, wl: PlannerWorkload) -> dict:
    return dict(
        seed=spec.seed, whitespace=spec.whitespace, n_blocks=spec.n_blocks, **wl.overrides
    )


def planner_setup(wl: PlannerWorkload) -> float:
    """Ready to plan: one untimed s27 plan, so lazy imports finish before
    any clock runs, and one build of every graph. Returns seconds since
    this process started."""
    graph, kwargs = load_circuit("s27")
    plan_interconnect(graph, **kwargs)
    for spec in wl.circuits:
        spec.build()
    return time.perf_counter() - _T0


def _prime_one(spec: CircuitSpec, wl: PlannerWorkload, cache_dir: str) -> None:
    plan_interconnect(
        spec.build(), compile_cache=CompileCache(cache_dir), **_plan_kwargs(spec, wl)
    )


def _prime(wl: PlannerWorkload, cache_dir: Path) -> None:
    """Fill the on-disk compile cache with one cold plan per circuit.

    Two spawned processes at most (nproc = 2), biggest circuit first so
    the two finish close together.
    """
    specs = sorted(wl.circuits, key=lambda s: -s.n_units)
    with ProcessPoolExecutor(
        max_workers=min(2, len(specs)),
        mp_context=multiprocessing.get_context("spawn"),
        initializer=os.sched_setaffinity,
        initargs=(0, ALL_CPUS),  # untimed, so not kept to one CPU
    ) as pool:
        for future in [pool.submit(_prime_one, s, wl, str(cache_dir)) for s in specs]:
            future.result()


def primed_cache(wl: PlannerWorkload) -> Path:
    """The workload's primed compile-cache directory.

    The prime is a cold plan per circuit, the work table1-cold times.
    It is kept for later runs in the same tree, under a hash of the
    ``repro`` sources this process imported: only the first run pays
    for it, and any change to the code primes afresh.
    """
    src = Path(repro.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    cache_dir = PRIMED / f"{wl.name}-{digest.hexdigest()[:16]}"
    marker = cache_dir / "primed.json"
    if not marker.is_file():
        for stale in PRIMED.glob(f"{wl.name}-*"):
            shutil.rmtree(stale)
        _prime(wl, cache_dir)
        atomic_write(marker, "{}\n")
    return cache_dir


def _plan_pass(
    wl: PlannerWorkload,
    order: Sequence[CircuitSpec],
    cache_dir: Optional[Path],
    checker: Checker,
    recorder: Optional[layers.SpanRecorder] = None,
    instrumented: bool = False,
    speed: Optional[HostSpeed] = None,
) -> Tuple[List[float], List[float]]:
    """Plan every circuit once, serially; returns each plan's wall time
    and, with ``speed``, the same scaled to the reference host.

    Graphs are built before the first clock starts. Each outcome is
    certified and checked after its clock stops. With ``speed``, the
    reference kernel is timed between plans, outside their clocks, and
    each plan is scaled by the samples on either side of it.
    """
    span = recorder.span if recorder is not None else _no_span
    graphs = []
    for spec in order:
        with span("netlist", circuit=spec.name):
            graphs.append(spec.build())
    walls: List[float] = []
    scaled: List[float] = []
    gc.collect()
    after = speed.sample(PLAN_REF_SAMPLES) if speed is not None else []
    for spec, graph in zip(order, graphs):
        before = after
        wall = _plan_one(spec, graph, wl, cache_dir, checker, span, recorder, instrumented)
        # The plan's cyclic garbage goes before the next plan starts, so
        # a plan's peak memory does not depend on the one before it.
        gc.collect()
        if speed is not None:
            after = speed.sample(PLAN_REF_SAMPLES)
        if wall is not None:
            walls.append(wall)
            if speed is not None:
                scaled.append(wall * scale(statistics.median(before + after)))
    return walls, scaled


def _plan_one(spec, graph, wl, cache_dir, checker, span, recorder, instrumented):
    """Plan, time and check one circuit; its wall time, or None if it failed.

    Nothing of the plan outlives this call, so the next plan's peak
    memory does not depend on which circuit came before it.
    """
    # A fresh cache per plan, as `repro plan` makes: with no directory
    # it is memory-only, with one the hits come from disk, as on a CLI
    # re-run. Circuits never share an artifact, so nothing is lost.
    cache = CompileCache(cache_dir)
    if recorder is not None:
        layers.wrap_cache(recorder, cache)
    kwargs = dict(_plan_kwargs(spec, wl), compile_cache=cache)
    if instrumented:
        # What every serve job runs with: tracer, metrics, monitor.
        kwargs.update(perf=PerfRecorder(), metrics=MetricsRegistry())
    start = time.perf_counter()
    try:
        with span("plan", circuit=spec.name) as attrs:
            outcome = plan_interconnect(graph, **kwargs)
            attrs["retries"] = outcome.ledger.n_retries
    except ReproError as exc:
        checker.fail(spec.name, f"{type(exc).__name__}: {exc}")
        return None
    wall = time.perf_counter() - start
    checker.check(spec.name, outcome_row(outcome), verify_outcome(outcome))
    return wall


def _layer_passes(
    wl: PlannerWorkload,
    order: Sequence[CircuitSpec],
    cache_dir: Optional[Path],
    checker: Checker,
    untraced_s: float,
    speed: HostSpeed,
) -> Tuple[Dict[str, float], List[dict]]:
    """One traced pass (harness spans) and one instrumented pass (the
    program's own tracer, metrics and monitor), each scaled by ``speed``
    and set against the scaled untraced median pass time ``untraced_s``."""
    recorder = layers.SpanRecorder()
    with layers.traced(recorder):
        _, traced = _plan_pass(wl, order, cache_dir, checker, recorder, speed=speed)
    _, instrumented = _plan_pass(
        wl, order, cache_dir, checker, instrumented=True, speed=speed
    )
    spans = recorder.spans
    plan_ids = {s["id"] for s in spans if s["name"] == "plan"}
    builds = [layers.duration(s) for s in spans if s["name"] == "netlist"]
    per_layer = layers.layer_metrics(
        spans, units=1, is_top=lambda s: s["parent"] in plan_ids
    )
    per_layer.update(
        {
            "netlist.build_s": sum(builds),
            # In process a request is build + plan: nothing queues,
            # nothing is refused, nothing is retried as a whole.
            "request.queue_wait_s.p50": 0.0,
            "request.plan_s.p50": statistics.median(
                layers.duration(s) for s in spans if s["name"] == "plan"
            ),
            "request.overhead_s.p50": statistics.median(builds),
            "request.attempts": 1.0,
            "request.shed": 0.0,
            "bench.trace_overhead_pct": _pct(sum(traced), untraced_s),
            "obs.instrumented_overhead_pct": _pct(sum(instrumented), untraced_s),
        }
    )
    return per_layer, spans


def run_planner(
    wl: PlannerWorkload, seed: int, seconds: float, trace: bool
) -> Tuple[dict, Optional[List[dict]]]:
    checker = Checker(_golden(wl.golden))
    order = list(wl.circuits)
    random.Random(seed).shuffle(order)
    setup_s = planner_setup(wl)
    speed = HostSpeed()
    setup_scaled = setup_s * scale(statistics.median(speed.sample(SETUP_REF_SAMPLES)))
    cache_dir = primed_cache(wl) if wl.warm else None

    passes: List[float] = []
    scaled_passes: List[float] = []
    n_plans = 0
    while True:
        walls, scaled = _plan_pass(wl, order, cache_dir, checker, speed=speed)
        if not passes:
            # After one pass, so the figure does not depend on how many
            # passes fit in the run; this process only, as the prime's
            # workers ran the cold flow whose memory table1-cold measures.
            peak_rss_mb = _peak_rss_mb(resource.RUSAGE_SELF)
        passes.append(sum(walls))
        scaled_passes.append(sum(scaled))
        n_plans += len(walls)
        if not walls or sum(passes) >= seconds:
            break
    metrics = _end_to_end(
        setup_scaled, scaled_passes, n_plans, sum(scaled_passes), peak_rss_mb, checker
    )
    attempted = len(passes) * len(order)
    per_layer = spans = None
    if trace:
        per_layer, spans = _layer_passes(
            wl, order, cache_dir, checker, statistics.median(scaled_passes), speed
        )
        attempted += 2 * len(order)
    return _document(checker, attempted, metrics, per_layer, speed, setup_s, passes), spans


# -- serve-burst --------------------------------------------------------


def _blocks(seed: int) -> Iterator[List[str]]:
    """Blocks of the smoke circuits, each block shuffled by the seed."""
    rng = random.Random(seed)
    names = [spec.name for spec in TABLE1_SMOKE]
    while True:
        yield rng.sample(names, len(names))


@contextlib.contextmanager
def serve_daemon(work: Path) -> Iterator[ServeClient]:
    """``repro serve`` on a Unix socket with a spool under ``work``,
    yielded once ``/readyz`` answers 200 and stopped on exit.

    SIGTERM drains the daemon, which waits for its workers.
    """
    # AF_UNIX paths are limited to ~100 bytes: keep the socket path
    # relative to the working directory the daemon shares with us.
    sock = os.path.relpath(work / "s.sock")
    daemon = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--socket", sock,
            "--spool", str(work / "spool"),
            "--workers", str(SERVE_WORKERS),
        ],
        stdout=sys.stderr,
    )
    try:
        client = ServeClient(socket_path=sock)
        deadline = time.monotonic() + READY_TIMEOUT_S
        while True:
            if daemon.poll() is not None:
                raise RuntimeError(f"repro serve exited {daemon.returncode} before ready")
            try:
                if client.ready():
                    break
            except ServeError:
                pass  # socket not bound yet
            if time.monotonic() > deadline:
                raise RuntimeError(f"repro serve not ready after {READY_TIMEOUT_S:g} s")
            time.sleep(POLL_S)
        yield client
    finally:
        if daemon.poll() is None:
            daemon.send_signal(signal.SIGTERM)
            try:
                daemon.wait(timeout=60.0)
            except subprocess.TimeoutExpired:
                daemon.kill()
                daemon.wait()


def _job_row(record: dict) -> dict:
    result = record["result"]
    return {key: result[key] for key in ("t_clk", "n_foa", "n_f")}


@dataclasses.dataclass
class JobSample:
    """One finished job: its record plus what only polling could see."""

    latency: float  # submit call to terminal state seen
    started: float  # worker.started, read while the job ran
    record: dict

    @property
    def queue_wait(self) -> float:
        return self.started - self.record["created"]

    @property
    def run_s(self) -> float:
        return self.record["updated"] - self.started

    @property
    def plan_s(self) -> float:
        return self.record["result"]["seconds"]


def _run_job(
    client: ServeClient, circuit: str, checker: Checker
) -> Tuple[int, Optional[JobSample]]:
    """Submit one quick job and poll it every POLL_S until it ends.

    Returns the submit status and, if the job finished with a result,
    its :class:`JobSample`.
    """
    sent = time.perf_counter()
    status, body = client.submit(circuit, options={"quick": True})
    if status != 201:
        checker.fail(circuit, f"submit refused ({status}: {body})")
        return status, None
    job_id = body["id"]
    started = None
    while True:
        time.sleep(POLL_S)
        record = client.job(job_id)
        now = time.perf_counter()
        if record is not None and record.get("worker"):
            # The record drops its worker on finishing: keep the
            # last claim's start time while the job still runs.
            started = record["worker"]["started"]
        if record is not None and record["state"] in TERMINAL:
            break
        if now - sent > JOB_TIMEOUT_S:
            client.cancel(job_id)
            checker.fail(circuit, f"job {job_id} not done after {JOB_TIMEOUT_S:g} s")
            return status, None
    if record["state"] != "done":
        checker.fail(circuit, f"job {job_id} {record['state']}: {record['error']}")
        return status, None
    if started is None:
        checker.fail(circuit, f"job {job_id} never seen running")
        return status, None
    checker.check(circuit, _job_row(record))
    return status, JobSample(now - sent, started, record)


def _burst(
    client: ServeClient, seed: int, seconds: float, checker: Checker, speed: HostSpeed
) -> Tuple[List[JobSample], List[float], int, int]:
    """Closed loop: one quick job at a time, in whole blocks of the smoke
    circuits, until ``seconds`` have passed at the end of a block.

    A block is the serve counterpart of a planner pass: each circuit
    once, so every run times the same mix of jobs. The reference kernel
    is timed between jobs, outside their clocks, and each block's summed
    latency is scaled by all the samples from its start to its end: the
    few samples next to one job tracked its speed worse than those next
    to a planner's plan. Returns ``(done, passes, submitted, shed)``: a
    :class:`JobSample` per job that finished with a result, each block's
    scaled latency, and the submit count and refusals.
    """
    blocks = _blocks(seed)
    done: List[JobSample] = []
    passes: List[float] = []
    submitted = shed = 0
    start = time.perf_counter()
    kernel = speed.sample(PLAN_REF_SAMPLES)
    while True:
        latency = 0.0
        for circuit in next(blocks):
            status, sample = _run_job(client, circuit, checker)
            kernel += speed.sample(PLAN_REF_SAMPLES)
            submitted += 1
            shed += status in (429, 503)
            if sample is not None:
                done.append(sample)
                latency += sample.latency
        passes.append(latency * scale(statistics.median(kernel)))
        kernel = kernel[-PLAN_REF_SAMPLES:]
        if time.perf_counter() - start >= seconds:
            return done, passes, submitted, shed


def _job_spans(client: ServeClient, done: List[JobSample]) -> List[dict]:
    """The spans of every finished job's own ``repro-trace/1`` trace."""
    spans = []
    for sample in done:
        job_id = sample.record["id"]
        status, text = client.request("GET", f"/jobs/{job_id}/trace")
        if status != 200:
            raise RuntimeError(f"no trace for job {job_id} ({status})")
        job = [json.loads(line) for line in text.splitlines()[1:] if line.strip()]
        stages = [s for s in job if s["attrs"].get("kind") == "stage"]
        for span in job:
            span["trace"] = job_id
            if span["name"] == "plan":
                span["attrs"]["retries"] = sum(s["attrs"]["attempts"] - 1 for s in stages)
        spans.extend(job)
    return spans


def run_serve(
    seed: int, seconds: float, trace: bool, work: Path
) -> Tuple[dict, Optional[List[dict]]]:
    checker = Checker(_golden("table1-quick"))
    with serve_daemon(work) as client:
        setup_s = time.perf_counter() - _T0
        speed = HostSpeed()
        setup_scaled = setup_s * scale(statistics.median(speed.sample(SETUP_REF_SAMPLES)))
        # One untimed job, so the first timed one does not pay cold disk reads.
        _status, warm = client.submit("s27", options={"quick": True})
        if client.wait(warm["id"], poll=POLL_S)["state"] != "done":
            raise RuntimeError("the warm-up s27 job did not finish")
        done, passes, submitted, shed = _burst(client, seed, seconds, checker, speed)
        spans = _job_spans(client, done) if trace else None

    # The daemon and its workers have all been waited for by now.
    peak_rss_mb = _peak_rss_mb(resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    metrics = _end_to_end(setup_scaled, passes, len(done), sum(passes), peak_rss_mb, checker)
    attempted = submitted
    per_layer = None
    if trace:
        per_layer = layers.layer_metrics(
            spans, units=len(done), is_top=lambda s: s["attrs"].get("kind") == "stage"
        )
        per_layer.update(
            {
                "request.queue_wait_s.p50": statistics.median(s.queue_wait for s in done),
                "request.plan_s.p50": statistics.median(s.plan_s for s in done),
                "request.overhead_s.p50": statistics.median(
                    s.run_s - s.plan_s for s in done
                ),
                "request.attempts": statistics.mean(s.record["attempts"] for s in done),
                "request.shed": shed / submitted,
            }
        )
        # The burst's traces cannot show what building a graph, the
        # harness's tracing or always-on instrumentation cost; the
        # in-process control measures those on the same circuits.
        order = list(SERVE_CONTROL.circuits)
        planner_setup(SERVE_CONTROL)
        control_speed = HostSpeed()
        untraced_s = statistics.median(
            sum(_plan_pass(SERVE_CONTROL, order, None, checker, speed=control_speed)[1])
            for _ in range(3)
        )
        control, control_spans = _layer_passes(
            SERVE_CONTROL, order, None, checker, untraced_s, control_speed
        )
        for key in ("netlist.build_s", "bench.trace_overhead_pct", "obs.instrumented_overhead_pct"):
            per_layer[key] = control[key]
        for span in control_spans:
            span["trace"] = SERVE_CONTROL.name
        spans.extend(control_spans)
        attempted += 5 * len(order)
    latencies = [sample.latency for sample in done]
    return _document(checker, attempted, metrics, per_layer, speed, setup_s, latencies), spans


def _end_to_end(setup_s, wall_samples, n_done, busy_s, peak_rss_mb, checker) -> dict:
    """The end-to-end metrics, from times already scaled by the caller."""
    return {
        "setup_s": setup_s,
        "wall_s.p50": statistics.median(wall_samples),
        "plans_per_s": n_done / busy_s,
        "peak_rss_mb": peak_rss_mb,
        **checker.totals(),
    }


def _document(checker, attempted, metrics, per_layer, speed, setup_s, wall_samples) -> dict:
    if per_layer is not None:
        per_layer["host.reference_s"] = statistics.median(speed.samples)
    return {
        "correct": not checker.failures,
        "attempted": attempted,
        "failed": len(checker.failures),
        "checks": checker.failures,
        "metrics": metrics,
        "per_layer": per_layer,
        "samples": {
            "raw_setup_s": setup_s,
            "raw_wall_s": wall_samples,
            "reference_s": speed.samples,
        },
    }


def setup_only(name: str, work: Path) -> dict:
    """The workload's set-up alone, timed and scaled as the timed run does."""
    if name in PLANNER_WORKLOADS:
        setup_s = planner_setup(PLANNER_WORKLOADS[name])
        kernel_s = statistics.median(HostSpeed().sample(SETUP_REF_SAMPLES))
    else:
        with serve_daemon(work):
            setup_s = time.perf_counter() - _T0
            kernel_s = statistics.median(HostSpeed().sample(SETUP_REF_SAMPLES))
    return {"setup_s": setup_s * scale(kernel_s), "raw_setup_s": setup_s}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks/suite/workloads.py")
    parser.add_argument("workload", choices=[*PLANNER_WORKLOADS, "serve-burst"])
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)
    # Stopped by run.py: unwind, so the daemon and the work directory
    # are cleaned up by the ``finally`` blocks below.
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(128 + signal.SIGTERM))
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.setup_only:
            doc, spans = setup_only(args.workload, work), None
        elif args.workload == "serve-burst":
            doc, spans = run_serve(args.seed, args.seconds, bool(args.trace), work)
        else:
            doc, spans = run_planner(
                PLANNER_WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.spans is not None and spans is not None:
        for span in spans:
            span.setdefault("trace", args.workload)
        args.spans.parent.mkdir(parents=True, exist_ok=True)
        args.spans.write_text(json.dumps({"spans": spans}) + "\n")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
