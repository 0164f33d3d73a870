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
stages, optional wall-clock deadlines), and an inherited ``T_clk``
below the iteration's ``T_min`` degrades gracefully — the iteration
retimes at ``T_min`` and is marked ``degraded`` instead of being
abandoned. The full attempt history lands on the stage spans; the
outcome's :class:`~repro.resilience.ledger.RunLedger` is a view of
them.

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
from typing import Dict, List, Optional, Tuple

from repro.compile import CompileCache
from repro.core.context import RunContext
from repro.core.lac import LACResult, lac_retiming
from repro.core.metrics import AreaReport, area_report
from repro.errors import PlanningError
from repro.floorplan.plan import Floorplan, build_floorplan, expand_floorplan
from repro.netlist.graph import CircuitGraph
from repro.partition.multiway import Partition, default_block_count, partition_graph
from repro.repeater.insertion import buffer_routed_nets
from repro.resilience.checkpoint import OUTCOME_KEY as CKPT_OUTCOME_KEY
from repro.resilience.degrade import find_relaxed_period
from repro.resilience.ledger import RunLedger
from repro.resilience.runner import StageRunner, perturbed_seed
from repro.retime.constraints import build_constraint_system
from repro.retime.expand import ExpandedCircuit, expand_interconnects
from repro.retime.incremental import IncrementalMinArea
from repro.retime.minarea import RetimingResult, min_area_retiming
from repro.retime.minperiod import min_period_retiming
from repro.route.router import GlobalRouter, nets_from_graph
from repro.tech.params import DEFAULT_TECH, Technology
from repro.tiles.grid import SOFT, TileGrid, build_tile_grid

log = logging.getLogger(__name__)

@dataclasses.dataclass
class PlannerConfig:
    """Knobs for the planning flow; defaults follow the paper.

    Only what changes a result lives here; the run's plumbing
    (telemetry, checkpoints, compile cache, retries, faults) is a
    :class:`~repro.core.context.RunContext`.
    """

    seed: int = 0
    n_blocks: Optional[int] = None
    whitespace: float = 0.50
    target_fraction: float = 0.2  # T_clk position between T_min and T_init
    alpha: float = 0.2
    n_max: int = 5
    max_rounds: int = 30
    floorplan_iterations: int = 2000
    rrr_passes: int = 2
    max_units_per_connection: Optional[int] = 4
    hard_blocks: Tuple[int, ...] = ()
    expansion_factor: float = 1.4
    run_baseline: bool = True
    tech: Technology = DEFAULT_TECH


def validate_planner_config(config: PlannerConfig) -> None:
    """Reject bad configs up front, naming the offending field.

    Raises:
        PlanningError: A field is out of range — better than failing
            deep inside a stage.
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
    if not 0.0 <= config.target_fraction <= 1.0:
        raise PlanningError(
            "PlannerConfig.target_fraction must be in [0, 1], got "
            f"{config.target_fraction}"
        )
    if config.n_max < 1:
        raise PlanningError(
            f"PlannerConfig.n_max must be >= 1, got {config.n_max}"
        )
    if config.max_rounds < 1:
        raise PlanningError(
            f"PlannerConfig.max_rounds must be >= 1, got {config.max_rounds}"
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
    period was below ``t_min`` (infeasible) and degradation retimed at
    ``t_min`` instead, ``degraded`` is True and ``t_clk_requested``
    keeps the original target; ``infeasible`` marks such an iteration
    when degradation is disabled.

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
    *,
    runner: StageRunner,
    cache: CompileCache,
    t_clk: Optional[float] = None,
) -> PlanningIteration:
    """Steps 3-8 on a given floorplan. ``t_clk`` fixes the target period
    (used by the second iteration); otherwise it is derived."""
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

    def _repeater(_a):
        buffered = buffer_routed_nets(routed, grid, config.tech)
        n_repeaters = sum(c.n_repeaters for c in buffered.values())
        tracer.current.set(
            n_connections=len(buffered), n_repeaters=n_repeaters
        )
        # Repeater insertion reserves repeater area from the grid in
        # place, and downstream area reports read that reservation. The
        # grid rides along in the stage value so a checkpoint of this
        # stage captures the mutation — a resumed run that restores the
        # repeater stage restores the post-reservation grid with it.
        # The post-reservation snapshot is the area the verification
        # layer audits the live grid against.
        return buffered, grid, grid.snapshot_usage(), n_repeaters

    repeater_value = runner.run("repeater", _repeater)
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
        # The whole pure front half of the solve — W/D and candidate
        # periods — keyed by the expanded graph's content.
        io0 = cache.stats.bytes_read + cache.stats.bytes_written
        artifact, hit = cache.get_or_compile(expanded.graph, tech=config.tech)
        tracer.current.set(
            cache="hit" if hit else "miss",
            fingerprint=artifact.fingerprint[:16],
            n_candidates=artifact.n_candidates,
            payload_bytes=cache.stats.bytes_read + cache.stats.bytes_written - io0,
        )
        return artifact

    compiled = runner.run("compile", _compile)
    t_init = compiled.t_init
    # The min-period search's witness table covers every period from
    # the largest unit delay up, T_clk's included: this iteration's
    # first constraint build masks its rows out of it, then drops it.
    # It never enters the stage value, the artifact or the checkpoint.
    witness = None

    def _min_period(_a):
        nonlocal witness
        t_min, found = min_period_retiming(
            expanded.graph, tracer=tracer, compiled=compiled, search_only=True
        )
        if found.checker is not None:
            witness = found.checker.witness
        return t_min, found.labels

    t_min, _ = runner.run("min_period", _min_period)
    if t_clk is None:
        t_clk = t_min + config.target_fraction * (t_init - t_min)

    def _retime_at(period: float):
        # One constraint system serves both retimings: they target the
        # same period, and constraint generation dominates run time
        # (the property the paper leans on in Section 4.2). The stage
        # timings of the outcome are the spans' own.
        nonlocal witness
        with tracer.span("retime/constraints", period=period) as sp:
            system = build_constraint_system(
                expanded.graph,
                period,
                compiled=compiled,
                tracer=tracer,
                witness=witness,
            )
            witness = None  # the solves below must not hold the table
            sp.set(n_constraints=len(system.constraints))
        constraints_seconds = sp.elapsed
        # ... and one solver: LAC starts from uniform weights, so its
        # first weighted min-area solve *is* the min-area baseline. The
        # baseline solves with exactly those weights and LAC's round 1
        # replays the solve.
        with tracer.span("retime/solver") as sp:
            solver = IncrementalMinArea(expanded.graph, system)
            sp.set(engine=solver.stats.engine, build_seconds=solver.stats.build_seconds)
        min_area_timed: Optional[TimedRetiming] = None
        if config.run_baseline:
            with tracer.span("retime/min_area", period=period) as sp:
                iterations = solver.stats.simplex_iterations
                base = min_area_retiming(
                    expanded.graph,
                    period,
                    weights=dict.fromkeys(expanded.unit_region, 1.0),
                    solver=solver,
                )
                solve_seconds = sp.elapsed
                # Inside the span, so the streamed close line carries it.
                base_report = area_report(
                    base.graph, expanded.unit_region, grid, config.tech
                )
                sp.set(
                    n_foa=base_report.n_foa,
                    n_f=base_report.n_f,
                    engine=solver.stats.engine,
                    simplex_iterations=solver.stats.simplex_iterations - iterations,
                )
            min_area_timed = TimedRetiming(base, base_report, solve_seconds)

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
                tracer=tracer,
                solver=solver,
            )
            sp.set(
                n_wr=lac_result.n_wr,
                n_foa=lac_result.report.n_foa,
                n_f=lac_result.report.n_f,
            )
        return min_area_timed, lac_result, sp.elapsed, constraints_seconds

    def _retime(_attempt: int) -> _RetimeOutcome:
        # T_min is the smallest feasible period, and feasibility is
        # monotone: the degrade decision needs nothing built.
        relaxed = find_relaxed_period(t_clk, t_min)
        if relaxed is None:
            ma, lac, lac_s, cons_s = _retime_at(t_clk)
            return _RetimeOutcome(ma, lac, lac_s, t_clk, cons_s)
        if not runner.config.degrade_t_clk:
            return _RetimeOutcome(None, None, 0.0, t_clk, infeasible=True)
        log.warning("retime: T_clk=%.3f infeasible; degraded to %.3f", t_clk, relaxed)
        runner.note(
            f"retime: T_clk={t_clk:.3f} infeasible; degraded to "
            f"{relaxed:.3f} (T_init={t_init:.3f})"
        )
        ma, lac, lac_s, cons_s = _retime_at(relaxed)
        return _RetimeOutcome(ma, lac, lac_s, relaxed, cons_s, degraded=True)

    retimed = runner.run("retime", _retime)
    # Persist whatever the solve added to the artifact (clocking-row
    # tables, the min-period witness) so the next identical run replays
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
        t_clk_requested=t_clk if retimed.degraded else None,
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
    ctx: Optional[RunContext] = None,
    max_iterations: int = 2,
    verify: bool = False,
    **overrides,
) -> PlanningOutcome:
    """Run the full interconnect-planning flow on a circuit.

    ``config`` holds the flow's knobs and ``ctx`` (a
    :class:`~repro.core.context.RunContext`) the run's plumbing:
    telemetry sinks, checkpoint store, compile cache, retry posture and
    injected faults. Keyword overrides name a field of either and are
    applied on top of it, e.g. ``plan_interconnect(g, seed=3,
    trace_path="t.jsonl")``; any other name raises ``TypeError``.

    With ``verify=True`` the finished outcome (fresh *or* restored
    from a checkpoint) is certified end-to-end by the independent
    audit layer (:func:`repro.verify.verify_outcome`) and the
    resulting report is attached as ``outcome.verification``; the
    caller decides what a failed certificate means (the CLI exits 5).

    A checkpoint store is bound to the circuit and the run fingerprint
    (graph + config + ``max_iterations``), so checkpoints from a
    different run can never be resumed silently; a store created with
    ``resume=True`` restores completed stages, and a finished run's
    outcome, instead of recomputing them. The compile cache affects
    wall-clock, never results: artifacts are content-addressed over the
    expanded graph, tech and compile-relevant config.
    """
    config, ctx = _apply_overrides(
        config or PlannerConfig(), ctx or RunContext(), overrides
    )
    validate_planner_config(config)
    graph.validate()

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

    with ctx.session(graph, config, max_iterations) as run:
        tracer, checkpoint = run.tracer, run.checkpoint
        runner = StageRunner(
            run.resilience,
            faults=run.faults,
            tracer=tracer,
            checkpoint=checkpoint,
        )
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
                    run.compile_cache,
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
    log.info(
        "planning %s done: converged=%s, %d iteration(s)",
        graph.name,
        outcome.converged,
        len(outcome.iterations),
    )
    return outcome


_CONFIG_FIELDS = frozenset(f.name for f in dataclasses.fields(PlannerConfig))
_CONTEXT_FIELDS = frozenset(f.name for f in dataclasses.fields(RunContext))


def _apply_overrides(
    config: PlannerConfig, ctx: RunContext, overrides: Dict[str, object]
) -> Tuple[PlannerConfig, RunContext]:
    """Split keyword overrides between the config and the context."""
    unknown = sorted(set(overrides) - _CONFIG_FIELDS - _CONTEXT_FIELDS)
    if unknown:
        raise TypeError(
            "plan_interconnect() got unexpected keyword argument(s): "
            + ", ".join(unknown)
        )
    config_kw = {k: v for k, v in overrides.items() if k in _CONFIG_FIELDS}
    ctx_kw = {k: v for k, v in overrides.items() if k in _CONTEXT_FIELDS}
    if config_kw:
        config = dataclasses.replace(config, **config_kw)
    if ctx_kw:
        ctx = dataclasses.replace(ctx, **ctx_kw)
    return config, ctx


def _plan_stages(
    graph: CircuitGraph,
    config: PlannerConfig,
    max_iterations: int,
    runner: StageRunner,
    n_blocks: int,
    cache: CompileCache,
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
        circuit=graph.name,
        config=config,
        iterations=iterations,
        ledger=runner.ledger,
    )
