"""The run ledger: a structured record of how a planning run executed.

A view of the span tree: the stage runner writes each try as an
``attempt`` event on its stage span and each degradation note (e.g.
"T_clk=0.010 infeasible; degraded to 3.620") as a ``note`` event, and
:meth:`RunLedger.from_spans` reads them back, from live spans or a
trace file, into one :class:`StageRecord` per stage execution. The
ledger is attached to :class:`~repro.core.planner.PlanningOutcome` and
rendered by ``outcome.report()`` and ``trace summarize``.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Iterable, List, Optional

#: Attempt / record statuses.
OK = "ok"
ERROR = "error"
TIMEOUT = "timeout"
FAILED = "failed"


@dataclasses.dataclass
class StageAttempt:
    """One try of one stage."""

    stage: str
    attempt: int  # 1-based
    variant: str  # "primary", or "resumed" for a checkpoint restore
    status: str  # ok | error | timeout
    seconds: float
    error: Optional[str] = None  # "ExcType: message" when not ok

    def describe(self) -> str:
        tag = f"{self.variant}#{self.attempt}"
        if self.status == OK:
            return f"{tag} ok ({self.seconds:.2f}s)"
        return f"{tag} {self.status}: {self.error} ({self.seconds:.2f}s)"


@dataclasses.dataclass
class StageRecord:
    """The final word on one stage execution."""

    stage: str
    attempts: List[StageAttempt]
    status: str  # ok | failed
    scope: str = ""  # e.g. "iteration 2"

    @property
    def seconds(self) -> float:
        return sum(a.seconds for a in self.attempts)

    @property
    def retries(self) -> int:
        """Attempts beyond the first."""
        return max(0, len(self.attempts) - 1)

    @property
    def name(self) -> str:
        return f"{self.scope} · {self.stage}" if self.scope else self.stage

    def describe(self) -> str:
        n = len(self.attempts)
        line = (
            f"{self.name}: {self.status} — "
            f"{n} attempt{'s' if n != 1 else ''}, {self.seconds:.2f}s"
        )
        if n > 1 or self.status != OK:
            detail = "; ".join(a.describe() for a in self.attempts)
            line += f" [{detail}]"
        return line


#: ``attempt`` event attributes, in :class:`StageAttempt` field order.
_ATTEMPT_KEYS = ("index", "variant", "status", "seconds", "error")


def stage_attempts(span) -> List[StageAttempt]:
    """The tries recorded as ``attempt`` events on one stage span."""
    return [
        StageAttempt(span.name, *map(attrs.get, _ATTEMPT_KEYS))
        for name, _t, attrs in span.events
        if name == "attempt"
    ]


@dataclasses.dataclass
class RunLedger:
    """Structured per-stage history of one planning run."""

    records: List[StageRecord] = dataclasses.field(default_factory=list)
    notes: List[str] = dataclasses.field(default_factory=list)

    @classmethod
    def from_spans(cls, spans: Iterable) -> "RunLedger":
        """Stage spans become records in finish order; ``note`` events
        on any span become notes in time order."""
        records: List[StageRecord] = []
        notes = []
        for span in spans:
            attrs = span.attrs
            if attrs.get("kind") == "stage":
                records.append(
                    StageRecord(
                        stage=span.name,
                        attempts=stage_attempts(span),
                        status=attrs.get("status", FAILED),
                        scope=attrs.get("scope") or "",
                    )
                )
            notes.extend(
                (t, ev["message"]) for name, t, ev in span.events if name == "note"
            )
        notes.sort(key=lambda note: note[0])
        return cls(records, [message for _t, message in notes])

    def for_stage(self, stage: str) -> List[StageRecord]:
        return [r for r in self.records if r.stage == stage]

    @property
    def n_retries(self) -> int:
        return sum(r.retries for r in self.records)

    @property
    def n_failures(self) -> int:
        return sum(1 for r in self.records if r.status != OK)

    @property
    def total_seconds(self) -> float:
        return sum(r.seconds for r in self.records)

    def summary(self) -> str:
        return (
            f"{len(self.records)} stage runs, {self.n_retries} retries, "
            f"{self.n_failures} failures "
            f"({self.total_seconds:.2f}s)"
        )

    def format(self, verbose: bool = False) -> str:
        """Render the ledger; non-verbose shows only eventful stages."""
        lines = [f"resilience: {self.summary()}"]
        for r in self.records:
            if verbose or r.retries or r.status != OK:
                lines.append(f"  {r.describe()}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable dump (for logs / machine consumption)."""
        return {
            "summary": self.summary(),
            "records": [
                {
                    "stage": r.stage,
                    "scope": r.scope,
                    "status": r.status,
                    "seconds": r.seconds,
                    "attempts": [dataclasses.asdict(a) for a in r.attempts],
                }
                for r in self.records
            ],
            "notes": list(self.notes),
        }
