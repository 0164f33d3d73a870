"""The end-to-end interconnect planner (Fig. 1 of the paper).

One *interconnect planning* iteration runs, inside physical planning:

1. partition the functional units into circuit blocks;
2. sequence-pair floorplanning;
3. tile-grid construction;
4. global routing of inter-block connections;
5. repeater planning under ``L_max``;
6. interconnect-unit expansion;
7. ``T_init`` (current period), min-period retiming (``T_min``),
   target ``T_clk = T_min + f * (T_init - T_min)`` with ``f = 0.2``;
8. retiming + flip-flop placement: classic min-area retiming (the
   paper's baseline) *and* LAC-retiming, both at ``T_clk``.

If LAC-retiming leaves area violations, a second planning iteration
expands the congested soft blocks and repeats steps 2–8 with the same
``T_clk`` (which, as the paper observes for s1269, can become
infeasible after a drastic floorplan change).

Every stage executes through the :mod:`repro.resilience` layer: a
:class:`~repro.resilience.runner.StageRunner` applies per-stage
policies (bounded retries with seed perturbation for the stochastic
stages, optional wall-clock deadlines, fallback chains such as the
``tree`` repeater backend falling back to ``path``), and an infeasible
``T_clk`` degrades gracefully — the period is relaxed toward
``T_init`` and the iteration is marked ``degraded`` instead of being
abandoned. The full attempt history lands in the outcome's
:class:`~repro.resilience.ledger.RunLedger`.

With a :class:`~repro.resilience.checkpoint.CheckpointManager`
attached, every successful stage result is additionally persisted at
the stage boundary, so a killed run resumed with ``resume=True``
restores the completed prefix — including mid-iteration state such as
the retiming labels of a finished ``retime`` stage — and recomputes
only what was in flight; the flow is deterministic given its seeds, so
the resumed outcome is bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import dataclasses
import logging
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.compile import CACHE_MODES, CompileCache
from repro.core.lac import LACResult, lac_retiming
from repro.core.metrics import AreaReport, area_report
from repro.errors import InfeasiblePeriodError, PlanningError
from repro.floorplan.plan import Floorplan, build_floorplan, expand_floorplan
from repro.netlist.graph import CircuitGraph
from repro.obs import NOOP_TRACER, Tracer
from repro.obs.export import write_trace
from repro.obs.metrics import MetricsRegistry, write_metrics, write_prometheus
from repro.obs.monitor import ResourceSampler
from repro.obs.progress import open_progress
from repro.partition.multiway import Partition, default_block_count, partition_graph
from repro.repeater.insertion import buffer_routed_nets
from repro.resilience.checkpoint import (
    OUTCOME_KEY as CKPT_OUTCOME_KEY,
    run_fingerprint,
)
from repro.resilience.degrade import find_relaxed_period
from repro.resilience.faults import FaultInjector
from repro.resilience.ledger import RunLedger
from repro.resilience.policy import ResilienceConfig, default_resilience
from repro.resilience.runner import StageRunner, perturbed_seed
from repro.retime.constraints import build_constraint_system
from repro.retime.expand import ExpandedCircuit, expand_interconnects
from repro.retime.minarea import RetimingResult, min_area_retiming
from repro.retime.minperiod import min_period_retiming
from repro.route.router import GlobalRouter, nets_from_graph
from repro.tech.params import DEFAULT_TECH, Technology
from repro.tiles.grid import SOFT, TileGrid, build_tile_grid

log = logging.getLogger(__name__)

#: Legal backend names, checked up-front by config validation.
FLOORPLAN_BACKENDS = ("sequence_pair", "slicing")
REPEATER_BACKENDS = ("path", "tree")


@dataclasses.dataclass
class PlannerConfig:
    """Knobs for the planning flow; defaults follow the paper."""

    seed: int = 0
    n_blocks: Optional[int] = None
    whitespace: float = 0.50
    target_fraction: float = 0.2  # T_clk position between T_min and T_init
    alpha: float = 0.2
    n_max: int = 5
    max_rounds: int = 30
    prune: bool = True
    floorplan_iterations: int = 2000
    anneal_replicas: int = 1  # parallel-tempered multi-start replicas
    anneal_jobs: int = 1  # worker processes for replicas > 1
    rrr_passes: int = 2
    max_units_per_connection: Optional[int] = 4
    hard_blocks: Tuple[int, ...] = ()
    expansion_factor: float = 1.4
    run_baseline: bool = True
    floorplan_backend: str = "sequence_pair"
    repeater_backend: str = "path"  # "path" (per-connection DP) | "tree"
    tech: Technology = DEFAULT_TECH
    resilience: Optional[ResilienceConfig] = None  # None -> defaults
    trace_path: Optional[str] = None  # write a repro-trace/1 JSONL here
    metrics_path: Optional[str] = None  # repro-metrics/1 JSONL (+ .prom sibling)
    progress_path: Optional[str] = None  # repro-events/1 live stream ("-" = TTY)
    monitor: bool = True  # sample RSS/CPU/GC while instrumented
    monitor_interval: float = 0.05  # seconds between resource samples
    compile_cache_dir: Optional[str] = None  # compiled-circuit disk cache root
    compile_cache: str = "auto"  # "auto" | "off" | "readonly"


def validate_planner_config(config: PlannerConfig) -> None:
    """Reject bad configs up front, naming the offending field.

    Raises:
        PlanningError: A field is out of range or names an unknown
            backend — better than failing deep inside a stage.
    """
    if config.whitespace < 0:
        raise PlanningError(
            f"PlannerConfig.whitespace must be >= 0, got {config.whitespace}"
        )
    if config.expansion_factor <= 1.0:
        raise PlanningError(
            "PlannerConfig.expansion_factor must be > 1.0, got "
            f"{config.expansion_factor}"
        )
    if config.anneal_replicas < 1:
        raise PlanningError(
            "PlannerConfig.anneal_replicas must be >= 1, got "
            f"{config.anneal_replicas}"
        )
    if config.anneal_jobs < 1:
        raise PlanningError(
            f"PlannerConfig.anneal_jobs must be >= 1, got {config.anneal_jobs}"
        )
    if not 0.0 <= config.target_fraction <= 1.0:
        raise PlanningError(
            "PlannerConfig.target_fraction must be in [0, 1], got "
            f"{config.target_fraction}"
        )
    if config.floorplan_backend not in FLOORPLAN_BACKENDS:
        raise PlanningError(
            "PlannerConfig.floorplan_backend: unknown floorplan backend "
            f"{config.floorplan_backend!r} (expected one of "
            f"{', '.join(FLOORPLAN_BACKENDS)})"
        )
    if config.repeater_backend not in REPEATER_BACKENDS:
        raise PlanningError(
            "PlannerConfig.repeater_backend: unknown repeater backend "
            f"{config.repeater_backend!r} (expected one of "
            f"{', '.join(REPEATER_BACKENDS)})"
        )
    if config.n_max < 1:
        raise PlanningError(
            f"PlannerConfig.n_max must be >= 1, got {config.n_max}"
        )
    if config.max_rounds < 1:
        raise PlanningError(
            f"PlannerConfig.max_rounds must be >= 1, got {config.max_rounds}"
        )
    if config.compile_cache not in CACHE_MODES:
        raise PlanningError(
            "PlannerConfig.compile_cache must be one of "
            f"{', '.join(CACHE_MODES)}, got {config.compile_cache!r}"
        )
    if config.monitor_interval <= 0:
        raise PlanningError(
            "PlannerConfig.monitor_interval must be > 0, got "
            f"{config.monitor_interval}"
        )


@dataclasses.dataclass
class TimedRetiming:
    """A retiming outcome plus its area report and wall-clock time."""

    result: RetimingResult
    report: AreaReport
    seconds: float


@dataclasses.dataclass
class PlanningIteration:
    """Everything produced by one interconnect-planning iteration.

    ``t_clk`` is the period actually retimed for. When the requested
    period proved infeasible and degradation relaxed it, ``degraded``
    is True and ``t_clk_requested`` keeps the original target;
    ``infeasible`` is reserved for the case where no relaxation was
    attempted (degradation disabled) or none succeeded.

    The last four fields are audit snapshots for :mod:`repro.verify`:
    the per-region area the repeater stage reserved (``grid.used`` as
    of that stage — the area checker trusts this snapshot, and the
    repeater checker holds the live grid to it), the repeater count,
    and the router's per-cell usage map plus its congestion summary.
    They default to ``None`` so outcomes restored from pre-audit
    checkpoints still load (their certificates come back *skipped*).
    """

    index: int
    partition: Partition
    floorplan: Floorplan
    grid: TileGrid
    expanded: ExpandedCircuit
    t_init: float
    t_min: float
    t_clk: float
    min_area: Optional[TimedRetiming]
    lac: Optional[LACResult]
    lac_seconds: float
    constraints_seconds: float = 0.0
    infeasible: bool = False
    degraded: bool = False
    t_clk_requested: Optional[float] = None
    repeater_used: Optional[Dict[str, float]] = None
    n_repeaters: Optional[int] = None
    route_usage: Optional[Dict[Tuple[int, int], int]] = None
    route_congestion: Optional[Dict[str, float]] = None

    @property
    def n_foa_min_area(self) -> Optional[int]:
        return self.min_area.report.n_foa if self.min_area else None

    @property
    def n_foa_lac(self) -> Optional[int]:
        return self.lac.report.n_foa if self.lac else None


@dataclasses.dataclass
class PlanningOutcome:
    """Result of :func:`plan_interconnect` across planning iterations."""

    circuit: str
    config: PlannerConfig
    iterations: List[PlanningIteration]
    ledger: RunLedger = dataclasses.field(default_factory=RunLedger)
    #: Attached by ``plan_interconnect(..., verify=True)`` — a
    #: :class:`repro.verify.certificate.VerificationReport`. Read it
    #: with ``getattr(outcome, "verification", None)``: outcomes
    #: unpickled from older checkpoints predate the field.
    verification: Optional[object] = None

    @property
    def first(self) -> PlanningIteration:
        return self.iterations[0]

    @property
    def final(self) -> PlanningIteration:
        return self.iterations[-1]

    @property
    def converged(self) -> bool:
        """True when the final iteration has zero area violations."""
        last = self.final
        return (not last.infeasible) and last.lac is not None and last.lac.n_foa == 0

    @property
    def degraded(self) -> bool:
        """True when any iteration ran at a relaxed (degraded) period."""
        return any(it.degraded for it in self.iterations)

    def foa_decrease(self) -> Optional[float]:
        """Fractional N_FOA decrease of LAC vs min-area (iteration 1)."""
        it = self.first
        if it.min_area is None or it.lac is None:
            return None
        base = it.min_area.report.n_foa
        if base == 0:
            return 0.0
        return 1.0 - it.lac.report.n_foa / base

    def report(self) -> str:
        """Human-readable summary, mirroring a Table 1 row."""
        lines = [f"interconnect planning: {self.circuit}"]
        for it in self.iterations:
            lines.append(
                f"  iteration {it.index}: T_init={it.t_init:.2f} "
                f"T_min={it.t_min:.2f} T_clk={it.t_clk:.2f}"
            )
            if it.degraded and it.t_clk_requested is not None:
                lines.append(
                    f"    degraded: requested T_clk={it.t_clk_requested:.2f} "
                    f"infeasible, achieved {it.t_clk:.2f}"
                )
            if it.infeasible:
                lines.append("    T_clk infeasible after floorplan expansion")
                continue
            if it.min_area:
                r = it.min_area.report
                lines.append(
                    f"    min-area: N_FOA={r.n_foa} N_F={r.n_f} N_FN={r.n_fn} "
                    f"({it.min_area.seconds:.2f}s)"
                )
            if it.lac:
                r = it.lac.report
                lines.append(
                    f"    LAC     : N_FOA={r.n_foa} N_F={r.n_f} N_FN={r.n_fn} "
                    f"N_wr={it.lac.n_wr} ({it.lac_seconds:.2f}s)"
                )
        dec = self.foa_decrease()
        if dec is not None:
            lines.append(f"  N_FOA decrease (LAC vs min-area): {100 * dec:.0f}%")
        lines.append(f"  converged: {self.converged}")
        verification = getattr(self, "verification", None)
        if verification is not None:
            lines.append(f"  {verification.summary()}")
        if self.ledger.records:
            lines.append("  " + self.ledger.format().replace("\n", "\n  "))
        return "\n".join(lines)


@dataclasses.dataclass
class _RetimeOutcome:
    """What the retime stage hands back to the iteration assembler."""

    min_area: Optional[TimedRetiming]
    lac: Optional[LACResult]
    lac_seconds: float
    t_clk: float
    constraints_seconds: float = 0.0
    infeasible: bool = False
    degraded: bool = False


def _run_iteration(
    graph: CircuitGraph,
    partition: Partition,
    plan: Floorplan,
    config: PlannerConfig,
    index: int,
    t_clk: Optional[float] = None,
    runner: Optional[StageRunner] = None,
    cache: Optional[CompileCache] = None,
) -> PlanningIteration:
    """Steps 3-8 on a given floorplan. ``t_clk`` fixes the target period
    (used by the second iteration); otherwise it is derived.

    Without an explicit ``runner`` the stages run strictly — single
    attempts, no degradation — which is the historical behaviour.
    """
    if runner is None:
        runner = StageRunner(ResilienceConfig(degrade_t_clk=False))
    if cache is None:
        cache = CompileCache(config.compile_cache_dir, mode=config.compile_cache)
    tracer = runner.tracer
    outer_scope = runner.scope
    runner.scope = f"iteration {index}"
    try:
        with tracer.span("iteration", index=index) as span:
            iteration = _run_iteration_stages(
                graph, partition, plan, config, index, t_clk, runner, cache
            )
            span.set(
                t_init=iteration.t_init,
                t_min=iteration.t_min,
                t_clk=iteration.t_clk,
                infeasible=iteration.infeasible,
                degraded=iteration.degraded,
                n_foa_lac=iteration.n_foa_lac,
            )
            return iteration
    finally:
        runner.scope = outer_scope


def _run_iteration_stages(
    graph: CircuitGraph,
    partition: Partition,
    plan: Floorplan,
    config: PlannerConfig,
    index: int,
    t_clk: Optional[float],
    runner: StageRunner,
    cache: CompileCache,
) -> PlanningIteration:
    tracer = runner.tracer
    grid = runner.run("tiles", lambda _a: build_tile_grid(plan, config.tech))

    def _route(attempt: int):
        # Retries re-jitter the pin placement seed: a marginal routing
        # instance often clears with a slightly different jitter.
        nets = nets_from_graph(
            graph, grid, plan, jitter_seed=perturbed_seed(config.seed, attempt)
        )
        router = GlobalRouter(grid)
        routed = router.route(
            nets, rrr_passes=config.rrr_passes, tracer=tracer
        )
        # The usage map and congestion summary ride along in the stage
        # value so the verification layer can re-count them later (and
        # a resumed run restores them with the routing).
        return routed, dict(router.usage), router.congestion_summary()

    route_value = runner.run("route", _route)
    if isinstance(route_value, tuple) and len(route_value) == 3:
        routed, route_usage, route_congestion = route_value
    else:  # stage value from a pre-audit checkpoint
        routed, route_usage, route_congestion = route_value, None, None

    def _annotate_repeaters(buffered):
        n_repeaters = sum(c.n_repeaters for c in buffered.values())
        tracer.current.set(
            n_connections=len(buffered), n_repeaters=n_repeaters
        )
        # Both backends reserve repeater area from the grid in place,
        # and downstream area reports read that reservation. The grid
        # rides along in the stage value so a checkpoint of this stage
        # captures the mutation — a resumed run that restores the
        # repeater stage restores the post-reservation grid with it.
        # The post-reservation snapshot is the area the verification
        # layer audits the live grid against.
        return buffered, grid, grid.snapshot_usage(), n_repeaters

    if config.repeater_backend == "tree":
        from repro.repeater.vanginneken import buffer_routed_nets_tree

        repeater_value = runner.run(
            "repeater",
            lambda _a: _annotate_repeaters(
                buffer_routed_nets_tree(routed, grid, config.tech)
            ),
            fallbacks=[
                (
                    "path",
                    lambda _a: _annotate_repeaters(
                        buffer_routed_nets(routed, grid, config.tech)
                    ),
                )
            ],
        )
    elif config.repeater_backend == "path":
        repeater_value = runner.run(
            "repeater",
            lambda _a: _annotate_repeaters(
                buffer_routed_nets(routed, grid, config.tech)
            ),
        )
    else:
        raise PlanningError(
            f"unknown repeater backend {config.repeater_backend!r}"
        )
    if len(repeater_value) == 4:
        buffered, grid, repeater_used, n_repeaters = repeater_value
    else:  # stage value from a pre-audit checkpoint
        (buffered, grid), repeater_used, n_repeaters = repeater_value, None, None

    def _expand(_a):
        expanded = expand_interconnects(
            graph,
            buffered,
            grid,
            plan,
            jitter_seed=config.seed,
            max_units_per_connection=config.max_units_per_connection,
        )
        tracer.current.set(n_units=expanded.graph.num_units)
        return expanded

    expanded = runner.run("expand", _expand)

    def _compile(_a):
        # The whole pure front half of the solve — W/D, candidate
        # periods, FEAS arrays — keyed by the expanded graph's content.
        artifact, hit = cache.get_or_compile(
            expanded.graph,
            tech=config.tech,
            prune=config.prune,
        )
        tracer.current.set(
            cache="hit" if hit else "miss",
            fingerprint=artifact.fingerprint[:16],
            n_candidates=len(artifact.candidates),
        )
        tracer.metrics.counter(
            "compile_cache_total", result="hit" if hit else "miss"
        ).inc()
        tracer.metrics.gauge("compile_candidates").set(len(artifact.candidates))
        return artifact

    compiled = runner.run("compile", _compile)
    wd = compiled.wd
    t_init = compiled.t_init
    t_min, _ = runner.run(
        "min_period",
        lambda _a: min_period_retiming(
            expanded.graph,
            wd,
            tracer=tracer,
            compiled=compiled,
        ),
    )
    requested = t_clk
    if t_clk is None:
        t_clk = t_min + config.target_fraction * (t_init - t_min)

    def _retime_at(period: float, prune: bool):
        # One constraint system serves both retimings: they target the
        # same period, and constraint generation dominates run time
        # (the property the paper leans on in Section 4.2).
        start = time.perf_counter()
        with tracer.span("retime/constraints", period=period, prune=prune) as sp:
            system = build_constraint_system(
                expanded.graph, wd, period, prune=prune, compiled=compiled
            )
            sp.set(n_constraints=len(system.constraints))
        constraints_seconds = time.perf_counter() - start
        min_area_timed: Optional[TimedRetiming] = None
        if config.run_baseline:
            start = time.perf_counter()
            with tracer.span("retime/min_area", period=period) as sp:
                base = min_area_retiming(
                    expanded.graph, period, wd=wd, system=system
                )
            elapsed = time.perf_counter() - start
            base_report = area_report(
                base.graph, expanded.unit_region, grid, config.tech
            )
            sp.set(n_foa=base_report.n_foa, n_f=base_report.n_f)
            min_area_timed = TimedRetiming(base, base_report, elapsed)

        start = time.perf_counter()
        with tracer.span("retime/lac", period=period) as sp:
            lac_result = lac_retiming(
                expanded.graph,
                expanded.unit_region,
                grid,
                period,
                tech=config.tech,
                alpha=config.alpha,
                n_max=config.n_max,
                max_rounds=config.max_rounds,
                wd=wd,
                system=system,
                tracer=tracer,
                compiled=compiled,
            )
            sp.set(
                n_wr=lac_result.n_wr,
                n_foa=lac_result.report.n_foa,
                n_f=lac_result.report.n_f,
            )
        lac_seconds = time.perf_counter() - start
        return min_area_timed, lac_result, lac_seconds, constraints_seconds

    def _retime(_attempt: int, prune: bool) -> _RetimeOutcome:
        try:
            ma, lac, lac_s, cons_s = _retime_at(t_clk, prune)
            return _RetimeOutcome(ma, lac, lac_s, t_clk, cons_s)
        except InfeasiblePeriodError:
            if not runner.config.degrade_t_clk:
                return _RetimeOutcome(None, None, 0.0, t_clk, infeasible=True)
            relaxed = find_relaxed_period(expanded.graph, t_clk, t_init, wd=wd)
            if relaxed is None:
                log.warning(
                    "retime: T_clk=%.3f infeasible, no relaxed period below "
                    "T_init=%.3f",
                    t_clk,
                    t_init,
                )
                runner.note(
                    f"retime: T_clk={t_clk:.3f} infeasible and no relaxed "
                    f"period found below T_init={t_init:.3f}"
                )
                return _RetimeOutcome(None, None, 0.0, t_clk, infeasible=True)
            log.warning(
                "retime: T_clk=%.3f infeasible; degraded to %.3f", t_clk, relaxed
            )
            runner.note(
                f"retime: T_clk={t_clk:.3f} infeasible; degraded to "
                f"{relaxed:.3f} (T_init={t_init:.3f})"
            )
            ma, lac, lac_s, cons_s = _retime_at(relaxed, prune)
            return _RetimeOutcome(ma, lac, lac_s, relaxed, cons_s, degraded=True)

    # Constraint pruning, if it ever produces an unsolvable reduced
    # system, falls back to the unpruned (sound but slower) system.
    fallbacks = (
        [("unpruned", lambda a: _retime(a, prune=False))] if config.prune else []
    )
    retimed = runner.run(
        "retime",
        lambda a: _retime(a, prune=config.prune),
        fallbacks=fallbacks,
    )
    # Persist whatever the solve added to the artifact (pruned pair
    # sets, the min-period witness) so the next identical run replays
    # the solve front half straight from disk.
    cache.save(compiled)

    return PlanningIteration(
        index=index,
        partition=partition,
        floorplan=plan,
        grid=grid,
        expanded=expanded,
        t_init=t_init,
        t_min=t_min,
        t_clk=retimed.t_clk,
        min_area=retimed.min_area,
        lac=retimed.lac,
        lac_seconds=retimed.lac_seconds,
        constraints_seconds=retimed.constraints_seconds,
        infeasible=retimed.infeasible,
        degraded=retimed.degraded,
        t_clk_requested=(
            (requested if requested is not None else t_clk)
            if retimed.degraded
            else None
        ),
        repeater_used=repeater_used,
        n_repeaters=n_repeaters,
        route_usage=route_usage,
        route_congestion=route_congestion,
    )


def _congested_blocks(iteration: PlanningIteration) -> List[str]:
    """Soft blocks to expand before the next planning iteration.

    Violations in soft-block regions name the block directly;
    violations in channel or hard-block tiles expand the nearest soft
    block (extra block slack relieves the surrounding channels too).
    When every violating region sits next to hard blocks only, there
    is nothing to expand and the list is empty.
    """
    grid = iteration.grid
    plan = iteration.floorplan
    blocks = set()
    if iteration.lac is None:
        return []
    for region in iteration.lac.report.violating_regions():
        if grid.kind.get(region) == SOFT:
            blocks.add(region[len("blk_") :])
        else:
            cells = [c for c, t in grid.region_of_cell.items() if t == region]
            if not cells:
                continue
            cx, cy = grid.center_of_cell(cells[0])
            nearest = min(
                plan.placements.values(),
                key=lambda p: abs(p.center[0] - cx) + abs(p.center[1] - cy),
            )
            if not plan.blocks[nearest.name].hard:
                blocks.add(nearest.name)
    return sorted(blocks)


def plan_interconnect(
    graph: CircuitGraph,
    config: Optional[PlannerConfig] = None,
    max_iterations: int = 2,
    faults: Optional[FaultInjector] = None,
    perf=None,
    tracer=None,
    checkpoint=None,
    verify: bool = False,
    compile_cache: Optional[CompileCache] = None,
    metrics=None,
    progress=None,
    **overrides,
) -> PlanningOutcome:
    """Run the full interconnect-planning flow on a circuit.

    Keyword overrides are applied on top of ``config`` (or the default
    config), e.g. ``plan_interconnect(g, seed=3, alpha=0.3)``.

    ``compile_cache`` (a :class:`repro.compile.CompileCache`) serves
    and stores the per-iteration compiled-circuit artifacts; when not
    given, one is created from ``config.compile_cache_dir`` /
    ``config.compile_cache`` (with no directory configured that is a
    process-local LRU only). Passing a mode string instead
    (``compile_cache="off"``) sets the config field, mirroring the
    other keyword overrides. The cache affects wall-clock, never
    results: artifacts are content-addressed over the expanded graph,
    tech and compile-relevant config, so a hit replays exactly what a
    fresh compile+search would produce.

    With ``verify=True`` the finished outcome (fresh *or* restored
    from a checkpoint) is certified end-to-end by the independent
    audit layer (:func:`repro.verify.verify_outcome`) and the
    resulting report is attached as ``outcome.verification``; the
    caller decides what a failed certificate means (the CLI exits 5).

    Stages run under ``config.resilience`` (the default posture gives
    the stochastic stages a retry and degrades infeasible periods);
    ``faults`` optionally injects deterministic failures/delays for
    testing the recovery paths.

    Durability: ``checkpoint`` (a
    :class:`~repro.resilience.checkpoint.CheckpointManager`) persists
    every successful stage result — and the finished outcome — to
    disk; a manager created with ``resume=True`` restores them, so an
    interrupted run picks up at the last completed stage and a
    finished run returns its outcome without recomputing anything.
    The manager is bound here to the circuit and the run fingerprint
    (graph + config + ``max_iterations``), so checkpoints from a
    different run can never be resumed silently.

    Observability: ``tracer`` (a :class:`repro.obs.Tracer`) receives
    the run's span tree — stages, iterations, LAC rounds, FEAS probes.
    When ``config.trace_path`` is set the spans are also written there
    as ``repro-trace/1`` JSONL (on failure too, for post-mortems).
    ``perf``, if given, is a :class:`repro.perf.PerfRecorder` whose
    stage table is derived from those same spans. ``metrics`` (a
    :class:`repro.obs.MetricsRegistry`, or one created when
    ``config.metrics_path`` is set) is installed as ``tracer.metrics``
    so every stage and solver meters into it; the registry is written
    as ``repro-metrics/1`` JSONL to ``config.metrics_path`` plus a
    Prometheus-text ``.prom`` sibling. ``progress`` (a
    :class:`repro.obs.ProgressStream` / ``HumanProgress``, or one
    opened from ``config.progress_path``) streams span open/close live
    as ``repro-events/1``. Whenever any instrumentation is on and
    ``config.monitor`` is true, a background
    :class:`repro.obs.ResourceSampler` attributes peak-RSS / CPU / GC
    deltas to stage spans. With none of these requested, the flow runs
    on the no-op tracer and pays ~nothing.
    """
    if config is None:
        config = PlannerConfig()
    if isinstance(compile_cache, str):
        # plan_interconnect(g, compile_cache="off") reads as a config
        # override, like every other keyword; honour that.
        overrides = {**overrides, "compile_cache": compile_cache}
        compile_cache = None
    if overrides:
        config = dataclasses.replace(config, **overrides)
    validate_planner_config(config)
    graph.validate()

    trace_path = config.trace_path
    instrumented = bool(
        trace_path
        or config.metrics_path
        or config.progress_path
        or perf is not None
        or metrics is not None
        or progress is not None
    )
    if tracer is None:
        # perf/metrics/progress all derive from spans, so any of them
        # needs a real tracer even when no trace file was requested.
        if instrumented:
            # wall_start anchors the monotonic span clock to the epoch
            # so traces can be correlated across runs and with logs.
            tracer = Tracer(
                meta={
                    "circuit": graph.name,
                    "seed": config.seed,
                    "wall_start": round(time.time(), 6),
                }
            )
        else:
            tracer = NOOP_TRACER

    if metrics is None and config.metrics_path:
        metrics = MetricsRegistry(
            meta={"circuit": graph.name, "seed": config.seed}
        )
    if metrics is not None and tracer.enabled:
        tracer.metrics = metrics

    # The monitor listener attaches before the progress listener so
    # progress events for closing spans already carry resource stamps.
    sampler = None
    if tracer.enabled and config.monitor:
        sampler = ResourceSampler(
            interval=config.monitor_interval, metrics=metrics
        )
        tracer.add_listener(sampler)
        sampler.start()

    own_progress = False
    if progress is None and config.progress_path:
        progress = open_progress(config.progress_path, metrics=metrics)
        own_progress = True
    if progress is not None and tracer.enabled:
        progress.attach(tracer)

    if checkpoint is not None:
        checkpoint.bind(
            graph.name, run_fingerprint(graph, config, max_iterations)
        )
        if checkpoint.faults is None:
            checkpoint.faults = faults

    resilience = config.resilience or default_resilience()
    ledger = RunLedger()
    runner = StageRunner(
        resilience, ledger, faults=faults, tracer=tracer, checkpoint=checkpoint
    )
    if compile_cache is None:
        compile_cache = CompileCache(
            config.compile_cache_dir, mode=config.compile_cache
        )

    hosts = set(graph.host_units())
    n_units = graph.num_units - len(hosts)
    n_blocks = config.n_blocks or default_block_count(n_units)
    log.info(
        "planning %s: %d units into %d blocks (seed %d)",
        graph.name,
        n_units,
        n_blocks,
        config.seed,
    )

    try:
        with tracer.span(
            "plan",
            circuit=graph.name,
            seed=config.seed,
            n_blocks=n_blocks,
            max_iterations=max_iterations,
        ) as plan_span:
            outcome = None
            if checkpoint is not None:
                outcome = checkpoint.restore_outcome()
                if outcome is not None:
                    log.info(
                        "planning %s: completed outcome restored from "
                        "checkpoint",
                        graph.name,
                    )
                    plan_span.set(resumed=True)
                    plan_span.event(
                        "resumed_from", checkpoint=CKPT_OUTCOME_KEY
                    )
            if outcome is None:
                outcome = _plan_stages(
                    graph,
                    config,
                    max_iterations,
                    runner,
                    n_blocks,
                    ledger,
                    compile_cache,
                )
                if checkpoint is not None:
                    checkpoint.commit_outcome(outcome)
            plan_span.set(
                converged=outcome.converged,
                degraded=outcome.degraded,
                iterations=len(outcome.iterations),
            )
            if verify:
                from repro.verify import verify_outcome

                outcome.verification = verify_outcome(outcome, tracer=tracer)
                plan_span.set(
                    verification_ok=outcome.verification.ok,
                    verification_failed=list(
                        outcome.verification.failed_checkers()
                    ),
                )
    finally:
        # Written on failure too: a trace of a crashed run is exactly
        # what the post-mortem needs. Monitor stops first so its final
        # sample lands, and a progress stream this call opened gets its
        # terminal run_end line; a caller-owned stream (table1 sharing
        # one across circuits) is only detached.
        if sampler is not None:
            sampler.stop()
            tracer.remove_listener(sampler)
        if progress is not None:
            if own_progress:
                progress.close(spans=len(tracer.spans))
            else:
                progress.detach()
        if trace_path:
            write_trace(tracer, trace_path)
        if metrics is not None and config.metrics_path:
            write_metrics(metrics, config.metrics_path)
            write_prometheus(
                metrics, Path(config.metrics_path).with_suffix(".prom")
            )
    log.info(
        "planning %s done: converged=%s, %d iteration(s)",
        graph.name,
        outcome.converged,
        len(outcome.iterations),
    )
    if perf is not None:
        perf.ingest_spans(tracer.spans)
    return outcome


def _plan_stages(
    graph: CircuitGraph,
    config: PlannerConfig,
    max_iterations: int,
    runner: StageRunner,
    n_blocks: int,
    ledger: RunLedger,
    cache: Optional[CompileCache] = None,
) -> PlanningOutcome:
    """The planning flow proper, run inside the root ``plan`` span."""
    tracer = runner.tracer
    partition = runner.run(
        "partition",
        lambda _a: partition_graph(
            graph, n_blocks, seed=config.seed, tracer=tracer
        ),
    )
    plan = runner.run(
        "floorplan",
        # Retries restart the anneal from a perturbed seed.
        lambda attempt: build_floorplan(
            graph,
            partition,
            seed=perturbed_seed(config.seed, attempt),
            hard_blocks=config.hard_blocks,
            whitespace=config.whitespace,
            iterations=config.floorplan_iterations,
            backend=config.floorplan_backend,
            replicas=config.anneal_replicas,
            anneal_jobs=config.anneal_jobs,
            tracer=tracer,
        ),
    )

    iterations: List[PlanningIteration] = []
    first = _run_iteration(
        graph, partition, plan, config, index=1, runner=runner, cache=cache
    )
    iterations.append(first)

    current = first
    while (
        len(iterations) < max_iterations
        and not current.infeasible
        and current.lac is not None
        and current.lac.n_foa > 0
    ):
        congested = _congested_blocks(current)
        if not congested:
            break
        log.info(
            "iteration %d left %d violating FFs; expanding %s",
            current.index,
            current.lac.n_foa,
            ", ".join(congested),
        )
        plan = runner.run(
            "expand_floorplan",
            lambda attempt: expand_floorplan(
                current.floorplan,
                graph,
                congested,
                factor=config.expansion_factor,
                seed=perturbed_seed(config.seed, attempt),
                iterations=config.floorplan_iterations,
                tracer=tracer,
            ),
        )
        current = _run_iteration(
            graph,
            partition,
            plan,
            config,
            index=len(iterations) + 1,
            t_clk=first.t_clk,
            runner=runner,
            cache=cache,
        )
        iterations.append(current)

    return PlanningOutcome(
        circuit=graph.name, config=config, iterations=iterations, ledger=ledger
    )
