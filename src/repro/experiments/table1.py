"""Regeneration harness for the paper's Table 1.

For every benchmark circuit this runs the full interconnect-planning
flow twice over (min-area baseline and LAC-retiming share one run of
the planner) and collects the columns the paper reports:

``T_clk``, ``T_init``, min-area {``N_FOA``, ``N_F``, ``N_FN``,
``T_exec``}, LAC {``N_FOA`` (with the post-expansion value in
parentheses when a second planning iteration ran), ``N_F``, ``N_FN``,
``N_wr``, ``T_exec``} and the percentage decrease in ``N_FOA``.

Absolute values differ from the paper (synthetic circuits, different
technology constants — see DESIGN.md); the claims under test are the
*shape* ones: a large average ``N_FOA`` decrease, a small ``N_F``
premium, ``N_wr`` in the single digits, LAC run time within a small
factor of min-area, and convergence after at most two planning
iterations for all but the hardest circuit.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from pathlib import Path
from typing import Callable, List, Mapping, Optional, Sequence

from repro.compile import CompileCache
from repro.core.context import RunContext
from repro.core.planner import PlanningOutcome, plan_interconnect
from repro.errors import ReproError, VerificationError
from repro.experiments.circuits import TABLE1_CIRCUITS, CircuitSpec
from repro.ioutil import atomic_write
from repro.resilience.batch import BatchItem, BatchResult, run_batch
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.faults import FaultInjector


@dataclasses.dataclass
class Table1Row:
    """One circuit's row, mirroring the paper's columns."""

    circuit: str
    t_clk: float
    t_init: float
    ma_n_foa: int
    ma_n_f: int
    ma_n_fn: int
    ma_seconds: float
    lac_n_foa: int
    lac_n_foa_iter2: Optional[int]  # None: no 2nd iteration ran
    lac_infeasible_iter2: bool
    lac_n_f: int
    lac_n_fn: int
    n_wr: int
    lac_seconds: float

    @property
    def decrease(self) -> Optional[float]:
        """Fractional N_FOA decrease, or None when min-area had none
        (the paper prints N/A for that case)."""
        if self.ma_n_foa == 0:
            return None
        return 1.0 - self.lac_n_foa / self.ma_n_foa

    @classmethod
    def from_outcome(cls, outcome: PlanningOutcome) -> "Table1Row":
        first = outcome.first
        second = outcome.iterations[1] if len(outcome.iterations) > 1 else None
        ma = first.min_area
        lac = first.lac
        if ma is None or lac is None:
            raise ValueError("outcome lacks baseline or LAC results")
        return cls(
            circuit=outcome.circuit,
            t_clk=first.t_clk,
            t_init=first.t_init,
            ma_n_foa=ma.report.n_foa,
            ma_n_f=ma.report.n_f,
            ma_n_fn=ma.report.n_fn,
            ma_seconds=ma.seconds,
            lac_n_foa=lac.report.n_foa,
            lac_n_foa_iter2=(
                None
                if second is None
                else (second.lac.report.n_foa if second.lac else None)
            ),
            lac_infeasible_iter2=bool(second and second.infeasible),
            lac_n_f=lac.report.n_f,
            lac_n_fn=lac.report.n_fn,
            n_wr=lac.n_wr,
            lac_seconds=first.lac_seconds,
        )


def run_circuit(
    spec: CircuitSpec,
    max_iterations: int = 2,
    ctx: Optional[RunContext] = None,
    verify: bool = False,
    **plan_overrides,
) -> Table1Row:
    """Run the planning flow for one benchmark circuit.

    ``ctx`` carries the run's plumbing: with a checkpoint store, stage
    progress is persisted under ``<root>/<circuit>/`` and a resuming
    store returns an already-committed circuit without recomputation.

    With ``verify`` set the finished plan is independently certified
    (:mod:`repro.verify`); a failing certificate raises
    :class:`~repro.errors.VerificationError`, which batch isolation
    records like any other per-circuit failure.

    scipy's HiGHS bindings are imported before planning starts, so in
    a fresh worker process that cold import does not land inside the
    circuit's ``lac_seconds``.
    """
    from repro.retime.incremental import _load_highs

    _load_highs()
    outcome = plan_interconnect(
        spec.build(),
        ctx=ctx,
        max_iterations=max_iterations,
        verify=verify,
        **spec.plan_kwargs(),
        **plan_overrides,
    )
    if verify:
        report = outcome.verification
        if report is not None and not report.ok:
            raise VerificationError(
                f"plan verification failed: {report.summary()}"
            )
    return Table1Row.from_outcome(outcome)


def write_batch_summary(batch: BatchResult, trace_dir: str) -> Path:
    """Merge per-circuit artifacts into ``<trace_dir>/batch_summary.json``.

    One entry per batch item: outcome, wall seconds, the trace
    filename, and — read back from each circuit's trace — the root
    span's wall time plus its monitor-stamped ``peak_rss_bytes``.
    Missing or unreadable traces, and traces whose root never closed,
    degrade to ``null`` fields, never an exception: the summary
    describes whatever the batch left behind.
    """
    from repro.obs.export import read_trace

    base = Path(trace_dir)
    entries = []
    for item in batch.items:
        entry: dict = {
            "name": item.name,
            "ok": item.ok,
            "seconds": round(item.seconds, 6),
            "error": item.error,
            "trace": f"{item.name}.trace.jsonl",
            "wall_seconds": None,
            "peak_rss_bytes": None,
        }
        try:
            doc = read_trace(base / entry["trace"])
            roots = [s for s in doc.spans if s.parent_id is None]
            if roots:
                root = roots[0]
                entry["wall_seconds"] = round(root.elapsed, 6)
                entry["peak_rss_bytes"] = root.attrs.get("peak_rss_bytes")
        except (ReproError, OSError):
            pass
        entries.append(entry)
    summary = {
        "schema": "repro-batch-summary/1",
        "interrupted": batch.interrupted,
        "n_ok": sum(1 for e in entries if e["ok"]),
        "n_failed": sum(1 for e in entries if not e["ok"]),
        "circuits": entries,
    }
    out = base / "batch_summary.json"
    atomic_write(out, json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return out


def run_table1_resilient(
    circuits: Optional[Sequence[CircuitSpec]] = None,
    max_iterations: int = 2,
    verbose: bool = False,
    faults_for: Optional[
        Callable[[str], Optional[FaultInjector]]
    ] = None,
    plan_overrides: Optional[Mapping[str, object]] = None,
    jobs: int = 1,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    verify: bool = False,
    trace_dir: Optional[str] = None,
    progress=None,
    compile_cache: Optional[CompileCache] = None,
) -> BatchResult:
    """Fault-isolated Table-1 run: one bad circuit cannot kill the batch.

    ``ReproError`` failures are caught per circuit and recorded in the
    returned :class:`~repro.resilience.batch.BatchResult` (each ok item
    carries a :class:`Table1Row`). ``faults_for(name)`` may supply a
    per-circuit fault injector (used by CI to exercise recovery and
    isolation paths).

    ``jobs > 1`` runs circuits in that many worker processes
    (:func:`~repro.resilience.batch.run_batch`). Items are collected in
    submission order, so the table (and every field except the
    wall-clock ``seconds``/``ma_seconds``/``lac_seconds``) is identical
    to a serial run, with the same per-circuit fault isolation.

    ``checkpoint_dir``/``resume`` give the batch durable progress:
    each circuit checkpoints under its own subdirectory (safe with
    ``jobs > 1`` — workers never share files), and a resumed batch
    skips already-completed circuits via their committed outcomes. An
    interrupt (:class:`~repro.errors.InterruptedRunError`) stops the
    batch and returns the partial result with ``interrupted`` set.

    ``compile_cache`` sets the compiled-circuit store: each circuit
    plans with its own cache of the same root and mode, so a disk store
    is shared across the batch (``jobs > 1`` workers too, in ``"auto"``
    mode). ``None`` gives each circuit a memory-only cache.

    ``trace_dir`` instruments every circuit: each streams its own
    ``<name>.trace.jsonl`` under the directory (works with ``jobs >
    1`` — workers never share files), and after a non-interrupted
    batch the parent merges them into ``batch_summary.json``.
    ``progress`` is a caller-owned span listener shared serially
    across circuits (incompatible with ``jobs > 1`` — listeners cannot
    cross process boundaries).
    """
    specs = list(circuits if circuits is not None else TABLE1_CIRCUITS)
    overrides = dict(plan_overrides or {})
    if progress is not None and jobs > 1:
        raise ValueError("a progress view requires a serial run (jobs=1)")
    if trace_dir is not None:
        Path(trace_dir).mkdir(parents=True, exist_ok=True)

    def _progress(item: BatchItem) -> None:
        if verbose:
            print(_format_item(item))

    if verbose and specs:
        print(format_rows([], header=True))

    def _context(spec: CircuitSpec) -> RunContext:
        # Everything in a circuit's context pickles, so it ships
        # unchanged into jobs > 1 worker processes.
        ctx = RunContext(
            faults=faults_for(spec.name) if faults_for is not None else None,
            progress=progress,
            compile_cache=(
                CompileCache(compile_cache.root, compile_cache.mode)
                if compile_cache is not None
                else None
            ),
        )
        if checkpoint_dir is not None:
            ctx.checkpoint = CheckpointManager(checkpoint_dir, resume=resume)
        if trace_dir is not None:
            ctx.trace_path = str(Path(trace_dir) / f"{spec.name}.trace.jsonl")
        return ctx

    work = [
        (
            spec.name,
            functools.partial(
                run_circuit,
                spec,
                max_iterations=max_iterations,
                ctx=_context(spec),
                verify=verify,
                **overrides,
            ),
        )
        for spec in specs
    ]
    batch = run_batch(work, jobs=jobs, on_item=_progress)
    if trace_dir is not None and not batch.interrupted:
        write_batch_summary(batch, trace_dir)
    return batch


def average_decrease(rows: Sequence[Table1Row]) -> Optional[float]:
    """Mean fractional decrease over rows where it is defined."""
    vals = [r.decrease for r in rows if r.decrease is not None]
    return sum(vals) / len(vals) if vals else None


def format_rows(rows: Sequence[Table1Row], header: bool = True) -> str:
    """Render rows in the paper's layout."""
    lines = []
    if header:
        lines.append(
            f"{'circuit':>8} {'T_clk':>6} {'T_init':>7} | "
            f"{'N_FOA':>5} {'N_F':>4} {'N_FN':>4} {'T(s)':>6} | "
            f"{'N_FOA':>9} {'N_F':>4} {'N_FN':>4} {'N_wr':>4} {'T(s)':>6} | "
            f"{'Decr.':>6}"
        )
        lines.append(
            f"{'':8} {'':6} {'':7} | {'-- min-area retiming --':^28} | "
            f"{'----- LAC-retiming -----':^32} |"
        )
    for r in rows:
        if r.lac_n_foa_iter2 is not None:
            foa = f"{r.lac_n_foa}({r.lac_n_foa_iter2})"
        elif r.lac_infeasible_iter2:
            foa = f"{r.lac_n_foa}(inf)"
        else:
            foa = str(r.lac_n_foa)
        dec = "N/A" if r.decrease is None else f"{100 * r.decrease:.0f}%"
        lines.append(
            f"{r.circuit:>8} {r.t_clk:>6.2f} {r.t_init:>7.2f} | "
            f"{r.ma_n_foa:>5} {r.ma_n_f:>4} {r.ma_n_fn:>4} {r.ma_seconds:>6.2f} | "
            f"{foa:>9} {r.lac_n_f:>4} {r.lac_n_fn:>4} {r.n_wr:>4} "
            f"{r.lac_seconds:>6.2f} | {dec:>6}"
        )
    if header:
        lines += _average_lines(rows)
    return "\n".join(lines)


def _average_lines(rows: Sequence[Table1Row]) -> List[str]:
    """The ``Average`` line under a table of several rows, if defined."""
    avg = average_decrease(rows) if len(rows) > 1 else None
    if avg is None:
        return []
    return [f"{'Average':>8} {'':6} {'':7} | {'':28} | {'':32} | {100 * avg:>5.0f}%"]


def _format_item(item: BatchItem) -> str:
    """One batch item as a table row or a ``FAILED`` line."""
    if item.ok:
        return format_rows([item.result], header=False)
    return f"{item.name:>8} FAILED ({item.error})"


def format_batch(batch: BatchResult) -> str:
    """Render a (possibly partial) table: ok rows plus FAILED lines."""
    lines = [format_rows([], header=True)]
    lines += [_format_item(item) for item in batch.items]
    lines += _average_lines(batch.results)
    if batch.n_failed:
        lines.append(
            f"{batch.n_failed} of {len(batch.items)} circuits FAILED "
            "(partial table)"
        )
    return "\n".join(lines)


def parse_fault_args(fault_args: Sequence[str]):
    """``name:stage`` specs -> per-circuit fault injector factory.

    Each spec arms a *permanent* fault (every attempt of that stage
    fails), so the named circuit genuinely fails and exercises batch
    isolation rather than being rescued by a retry.

    Raises:
        ValueError: A spec is not of the form ``CIRCUIT:STAGE``.
    """
    from repro.errors import PlanningError
    from repro.resilience.faults import FaultSpec

    by_circuit: dict = {}
    for arg in fault_args:
        name, sep, stage = arg.partition(":")
        if not sep:
            raise ValueError(
                f"--inject-fault expects CIRCUIT:STAGE, got {arg!r}"
            )
        by_circuit.setdefault(name, []).append(
            FaultSpec(stage, error=PlanningError, repeat=True)
        )

    def faults_for(name: str) -> Optional[FaultInjector]:
        specs = by_circuit.get(name)
        return FaultInjector(specs) if specs else None

    return faults_for
