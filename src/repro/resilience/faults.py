"""Deterministic fault injection for the planning pipeline.

A :class:`FaultInjector` sits inside the stage runner: every stage
attempt first calls ``injector.on_call(stage)``, which counts calls
per stage and fires any :class:`FaultSpec` armed for that call number
— sleeping (to exercise deadlines) and/or raising (to exercise retry
and batch isolation paths). Counting is the only state, so
injection is fully deterministic and CI-friendly.

Example — fail the first floorplan attempt, delay the second routing
attempt by 50 ms::

    faults = FaultInjector([
        FaultSpec("floorplan", error=FloorplanError("injected")),
        FaultSpec("route", on_call=2, delay=0.05),
    ])
    plan_interconnect(graph, ctx=RunContext(faults=faults))

The stage name ``"*"`` matches *any* stage, counted across the whole
run — ``FaultSpec("*", on_call=5, error=InterruptedRunError)``
simulates a process kill at the fifth stage boundary, which is how
the checkpoint/resume equivalence tests sweep every kill point.

Checkpoint recovery has its own fault family: a
:class:`CheckpointFault` fires on checkpoint *commit* and corrupts the
just-written file — truncation, a flipped payload bit, or a stale
fingerprint — so the quarantine-and-recompute path in
:mod:`repro.resilience.checkpoint` is testable end to end.

The third family targets the *results* rather than the computation or
the storage: a :class:`ResultFault` corrupts one claim of a completed
:class:`~repro.core.planner.PlanningOutcome` in memory (a retiming
label, a reported period, a per-tile sum, a routed cell, a repeater
reservation) so the independent certification layer in
:mod:`repro.verify` can be proven to reject exactly what it should —
the basis of the differential fuzz harness and the CI verify-smoke
step (``verify --inject-result-fault``).

The fourth family targets the *service* (:mod:`repro.serve`): a
:class:`ServeFault` either hard-kills a worker process at a stage
boundary (``worker_crash`` — ``os._exit``, no cleanup, exactly what a
SIGKILL or OOM kill looks like to the supervisor) or corrupts a job
record as it is spooled (``queue_corrupt``), so the requeue +
checkpoint-resume and quarantine paths are exercised deterministically
in CI (``repro serve --inject-fault``). ``worker_crash`` reaches the
worker as an argument: the supervisor passes the fired fault to the
forked job (:meth:`FaultInjector.worker_fault`), which arms it as a
:class:`FaultSpec` with ``exit_code`` set.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.errors import PlanningError
from repro.ioutil import read_sealed, write_sealed
from repro.resilience.checkpoint import CKPT_SCHEMA

#: Stage name matching every stage (global call counting).
ANY_STAGE = "*"

#: Legal :class:`CheckpointFault` kinds.
CORRUPTION_KINDS = ("truncate", "bitflip", "stale_fingerprint")

#: Legal :class:`ServeFault` kinds.
SERVE_FAULT_KINDS = ("worker_crash", "queue_corrupt")

#: Exit code a ``worker_crash`` fault dies with — the conventional
#: 128+SIGKILL value, so the supervisor's crash classification treats
#: it exactly like a real kill -9.
WORKER_CRASH_EXIT = 137

#: Legal :class:`ResultFault` kinds.
RESULT_FAULT_KINDS = (
    "retime_label",
    "period",
    "tile_sum",
    "route_usage",
    "repeater_area",
)

#: The certificate checker that *owns* detection of each result-fault
#: kind — the exclusive-ownership contract the differential fuzz
#: harness enforces (exactly this checker fails, no other).
RESULT_FAULT_OWNER = {
    "retime_label": "retiming",
    "period": "period",
    "tile_sum": "area",
    "route_usage": "routing",
    "repeater_area": "repeater",
}

ErrorLike = Union[BaseException, type, Callable[[], BaseException]]


def _make_error(error: ErrorLike, stage: str) -> BaseException:
    if isinstance(error, BaseException):
        return error
    if isinstance(error, type) and issubclass(error, BaseException):
        return error(f"injected fault in stage {stage!r}")
    return error()


@dataclasses.dataclass
class FaultSpec:
    """One armed fault.

    Attributes:
        stage: Stage name the fault is armed for (``floorplan``,
            ``route``, ...).
        error: Exception instance, class, or zero-arg factory raised
            when the fault fires; ``None`` injects only the delay.
        delay: Seconds to sleep before (optionally) raising.
        on_call: 1-based call number of the stage at which the fault
            fires. Calls are counted across the whole run, so e.g.
            ``on_call=2`` for ``route`` hits the second planning
            iteration's routing (or the first retry).
        repeat: Fire on every call >= ``on_call`` instead of only the
            Nth — turns a transient fault into a permanent one.
    """

    stage: str
    error: Optional[ErrorLike] = None
    delay: float = 0.0
    on_call: int = 1
    repeat: bool = False
    #: Hard-kill the process with ``os._exit(exit_code)`` when the
    #: fault fires — no exception, no ``finally`` blocks, no atexit;
    #: the faithful simulation of SIGKILL/OOM for crash-recovery tests.
    #: Committed checkpoints stay durable (they are written atomically
    #: at stage boundaries), which is exactly the contract a resumed
    #: attempt relies on.
    exit_code: Optional[int] = None

    def fires(self, call_index: int) -> bool:
        if self.repeat:
            return call_index >= self.on_call
        return call_index == self.on_call


@dataclasses.dataclass
class CheckpointFault:
    """One armed checkpoint corruption, fired after a commit.

    Attributes:
        kind: ``"truncate"`` (cut the file in half), ``"bitflip"``
            (flip one bit of the payload), or ``"stale_fingerprint"``
            (rewrite the header fingerprint to a different run's).
        key: Checkpoint-key filter — fires when this substring occurs
            in the committed key (``"*"`` matches every key).
        on_commit: 1-based index among *matching* commits at which the
            fault fires.
        repeat: Fire on every matching commit >= ``on_commit``.
    """

    kind: str
    key: str = ANY_STAGE
    on_commit: int = 1
    repeat: bool = False
    _seen: int = dataclasses.field(default=0, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in CORRUPTION_KINDS:
            raise ValueError(
                f"unknown checkpoint corruption kind {self.kind!r} "
                f"(expected one of {', '.join(CORRUPTION_KINDS)})"
            )

    def matches(self, key: str) -> bool:
        return self.key == ANY_STAGE or self.key in key

    def fires(self, seen: int) -> bool:
        if self.repeat:
            return seen >= self.on_commit
        return seen == self.on_commit


@dataclasses.dataclass
class ResultFault:
    """One armed *result* corruption, applied to a finished outcome.

    Where :class:`FaultSpec` breaks the computation and
    :class:`CheckpointFault` breaks the storage, a ``ResultFault``
    breaks the *answer*: :meth:`apply` mutates a completed
    :class:`~repro.core.planner.PlanningOutcome` in memory the way a
    solver bug or silent bit rot would, leaving everything around the
    lie consistent. The verification layer must then reject the
    outcome — with the failing certificate coming from exactly the
    checker that owns the corrupted claim (:data:`RESULT_FAULT_OWNER`).

    Attributes:
        kind: What to corrupt — ``"retime_label"`` (bump one unit's
            retiming label), ``"period"`` (report a ``T_clk`` below
            ``T_min``), ``"tile_sum"`` (skew one tile's flip-flop
            count in the area report), ``"route_usage"`` (inflate one
            routed cell's track usage), or ``"repeater_area"`` (drift
            the grid's live reservation away from the audited
            snapshot).
        target: Which retiming to corrupt, for the kinds that touch
            one: ``"lac"`` (default) or ``"min-area"``. Falls back to
            whichever the iteration actually has.
        iteration: Index into ``outcome.iterations`` (default ``-1``,
            the final iteration).
    """

    kind: str
    target: str = "lac"
    iteration: int = -1

    def __post_init__(self):
        if self.kind not in RESULT_FAULT_KINDS:
            raise ValueError(
                f"unknown result fault kind {self.kind!r} "
                f"(expected one of {', '.join(RESULT_FAULT_KINDS)})"
            )
        if self.target not in ("lac", "min-area"):
            raise ValueError(
                f"unknown result fault target {self.target!r} "
                "(expected 'lac' or 'min-area')"
            )

    @property
    def owner(self) -> str:
        """Name of the certificate checker that must catch this fault."""
        return RESULT_FAULT_OWNER[self.kind]

    def apply(self, outcome) -> str:
        """Corrupt ``outcome`` in place.

        Returns a one-line description of the exact mutation, for logs
        and CLI output.

        Raises:
            ValueError: The addressed iteration has nothing of the
                requested kind to corrupt (e.g. marked infeasible).
        """
        if not outcome.iterations:
            raise ValueError("outcome has no iterations to corrupt")
        it = outcome.iterations[self.iteration]
        if getattr(it, "infeasible", False):
            raise ValueError(
                "iteration is marked infeasible; no result to corrupt"
            )
        return getattr(self, f"_apply_{self.kind}")(it)

    def _pick_retiming(self, it):
        min_area = getattr(it, "min_area", None)
        lac = getattr(it, "lac", None)
        if self.target == "min-area" and min_area is not None:
            return "min-area", min_area.result, min_area.report
        if lac is not None:
            return "LAC", lac.retiming, lac.report
        if min_area is not None:
            return "min-area", min_area.result, min_area.report
        raise ValueError("iteration has no retiming result to corrupt")

    def _apply_retime_label(self, it) -> str:
        tag, result, _report = self._pick_retiming(it)
        graph = it.expanded.graph
        hosts = set(graph.host_units())
        units = sorted(u for u in result.labels if u not in hosts)
        if not units:
            units = sorted(u for u in graph.units() if u not in hosts)
        unit = units[0]
        result.labels[unit] = result.labels.get(unit, 0) + 1
        return f"retime_label: bumped r({unit}) by +1 in the {tag} retiming"

    def _apply_period(self, it) -> str:
        was = it.t_clk
        it.t_clk = 0.5 * min(it.t_min, it.t_clk)
        return f"period: reported T_clk {was:.6g} -> {it.t_clk:.6g} (< T_min)"

    def _apply_tile_sum(self, it) -> str:
        tag, _result, report = self._pick_retiming(it)
        if report.ff_count:
            region = sorted(report.ff_count)[0]
            report.ff_count[region] += 1
        else:
            region = "__fault__"
            report.ff_count[region] = 1
        return f"tile_sum: skewed ff_count[{region!r}] in the {tag} report"

    def _apply_route_usage(self, it) -> str:
        usage = getattr(it, "route_usage", None)
        summary = getattr(it, "route_congestion", None)
        if usage is None or summary is None:
            # Old outcome without routing snapshots: fabricate a
            # consistent-looking empty pair, then lie in the usage map.
            it.route_usage = {(0, 0): 1000}
            it.route_congestion = {
                "used_cells": 0.0,
                "overflowed_cells": 0.0,
                "max_usage": 0.0,
            }
            return "route_usage: fabricated a phantom routed cell (0, 0)"
        cell = sorted(usage)[0] if usage else (0, 0)
        usage[cell] = usage.get(cell, 0) + 1000
        return f"route_usage: inflated cell {cell} usage by +1000 tracks"

    def _apply_repeater_area(self, it) -> str:
        if getattr(it, "repeater_used", None) is None:
            # Take a faithful snapshot first, so the drift below is the
            # only inconsistency introduced.
            it.repeater_used = dict(it.grid.used)
        used = it.grid.used
        regions = sorted(used) or sorted(it.grid.capacity)
        region = regions[0] if regions else "__fault__"
        used[region] = used.get(region, 0.0) + 1.0
        return f"repeater_area: drifted grid.used[{region!r}] by +1.0"


@dataclasses.dataclass
class ServeFault:
    """One armed service-layer fault (:mod:`repro.serve`).

    Attributes:
        kind: ``"worker_crash"`` (hard-kill a worker process at a stage
            boundary, simulating SIGKILL) or ``"queue_corrupt"``
            (truncate a job record as it is spooled, so the queue's
            quarantine path must catch it).
        stage: For ``worker_crash``: stage whose entry kills the
            worker. The default ``"retime"`` dies mid-LAC — after
            earlier stage checkpoints are durable, before the retiming
            one is — the interesting kill point for resume tests.
        on_call: 1-based call index of ``stage`` at which the worker
            dies.
        on_job: 1-based index of the matching spawn/spool event (the
            supervisor counts worker launches, the queue counts
            submissions), so "kill only the first job's worker" is
            expressible.
        repeat: Fire on every matching event >= ``on_job``.
    """

    kind: str
    stage: str = "retime"
    on_call: int = 1
    on_job: int = 1
    repeat: bool = False
    _seen: int = dataclasses.field(default=0, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in SERVE_FAULT_KINDS:
            raise ValueError(
                f"unknown serve fault kind {self.kind!r} "
                f"(expected one of {', '.join(SERVE_FAULT_KINDS)})"
            )

    def fires(self, seen: int) -> bool:
        if self.repeat:
            return seen >= self.on_job
        return seen == self.on_job

    @classmethod
    def parse(cls, value: str) -> "ServeFault":
        """Decode ``kind[:stage[:on_call]]``, the ``--inject-fault`` form."""
        parts = value.split(":")
        kind = parts[0]
        stage = parts[1] if len(parts) > 1 and parts[1] else "retime"
        on_call = int(parts[2]) if len(parts) > 2 and parts[2] else 1
        return cls(kind, stage=stage, on_call=on_call)

    def as_spec(self) -> FaultSpec:
        """The in-worker :class:`FaultSpec` for a ``worker_crash``."""
        if self.kind != "worker_crash":
            raise ValueError(f"{self.kind!r} has no in-worker spec")
        return FaultSpec(
            self.stage, on_call=self.on_call, exit_code=WORKER_CRASH_EXIT
        )


def _corrupt_file(path: Path, kind: str) -> None:
    """Apply one corruption kind to a ``repro-ckpt/1`` file in place."""
    data = path.read_bytes()
    if kind == "truncate":
        path.write_bytes(data[: max(1, len(data) // 2)])
        return
    if kind == "bitflip":
        # The last byte is deep in the pickle payload, so the header
        # still parses and the sha256 check is what must catch this.
        flipped = bytearray(data)
        flipped[-1] ^= 0x01
        path.write_bytes(bytes(flipped))
        return
    # stale_fingerprint: keep the payload (and its valid checksum) but
    # claim it came from a different graph/config.
    header, payload = read_sealed(path, CKPT_SCHEMA)
    header["fingerprint"] = hashlib.sha256(b"stale").hexdigest()
    write_sealed(path, header, payload)


class FaultInjector:
    """Counts stage calls and fires armed :class:`FaultSpec` entries."""

    def __init__(
        self,
        specs: Sequence[FaultSpec] = (),
        checkpoint_faults: Sequence[CheckpointFault] = (),
        serve_faults: Sequence[ServeFault] = (),
    ):
        self.specs: List[FaultSpec] = list(specs)
        self.checkpoint_faults: List[CheckpointFault] = list(checkpoint_faults)
        self.serve_faults: List[ServeFault] = list(serve_faults)
        self._calls: Dict[str, int] = {}
        self._total_calls = 0

    def arm(
        self, spec: Union[FaultSpec, CheckpointFault, ServeFault]
    ) -> "FaultInjector":
        if isinstance(spec, CheckpointFault):
            self.checkpoint_faults.append(spec)
        elif isinstance(spec, ServeFault):
            self.serve_faults.append(spec)
        else:
            self.specs.append(spec)
        return self

    def calls(self, stage: str) -> int:
        """How many times ``stage`` has been entered so far."""
        if stage == ANY_STAGE:
            return self._total_calls
        return self._calls.get(stage, 0)

    def on_call(self, stage: str) -> None:
        """Stage-entry hook; fires any spec armed for this call."""
        index = self._calls.get(stage, 0) + 1
        self._calls[stage] = index
        self._total_calls += 1
        for spec in self.specs:
            if spec.stage == ANY_STAGE:
                fires = spec.fires(self._total_calls)
            else:
                fires = spec.stage == stage and spec.fires(index)
            if fires:
                if spec.delay > 0:
                    time.sleep(spec.delay)
                if spec.exit_code is not None:
                    os._exit(spec.exit_code)
                if spec.error is not None:
                    raise _make_error(spec.error, stage)

    def on_checkpoint_commit(self, key: str, path) -> None:
        """Checkpoint-commit hook; corrupts the file when a fault fires."""
        for fault in self.checkpoint_faults:
            if not fault.matches(key):
                continue
            fault._seen += 1
            if fault.fires(fault._seen):
                _corrupt_file(Path(path), fault.kind)

    def on_spool(self, job_id: str, path) -> None:
        """Job-spool hook; corrupts the just-written record on a fire."""
        for fault in self.serve_faults:
            if fault.kind != "queue_corrupt":
                continue
            fault._seen += 1
            if fault.fires(fault._seen):
                _corrupt_file(Path(path), "truncate")

    def worker_fault(self) -> Optional[ServeFault]:
        """The ``worker_crash`` fault the next forked job must arm.

        Counts spawn events against every armed ``worker_crash`` fault;
        returns the first one that fires for this spawn, else ``None``.
        Called by the supervisor once per worker launch.
        """
        fired: Optional[ServeFault] = None
        for fault in self.serve_faults:
            if fault.kind != "worker_crash":
                continue
            fault._seen += 1
            if fault.fires(fault._seen) and fired is None:
                fired = fault
        return fired

    @classmethod
    def fail_once(
        cls, *stages: str, error: Optional[ErrorLike] = None
    ) -> "FaultInjector":
        """Injector that fails the first attempt of each given stage."""
        return cls(
            [
                FaultSpec(
                    stage,
                    error=error
                    or PlanningError(f"injected fault in stage {stage!r}"),
                )
                for stage in stages
            ]
        )

    @classmethod
    def fail_always(
        cls, *stages: str, error: Optional[ErrorLike] = None
    ) -> "FaultInjector":
        """Injector that fails every attempt of each given stage."""
        return cls(
            [
                FaultSpec(
                    stage,
                    error=error or PlanningError,
                    repeat=True,
                )
                for stage in stages
            ]
        )
