"""Exception hierarchy for the repro library.

All library-specific failures derive from :class:`ReproError` so callers
can catch one base class at flow boundaries. The one deliberate
exception is :class:`InterruptedRunError`, which derives from
:class:`KeyboardInterrupt` so that fault-isolation layers catching
``ReproError`` (batch runners, workers) never swallow a shutdown
request.
"""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class NetlistError(ReproError):
    """Malformed or inconsistent netlist (bad graph, parse failure...)."""


class BenchParseError(NetlistError):
    """An ISCAS89 ``.bench`` file could not be parsed."""


class RetimingError(ReproError):
    """A retiming problem is malformed or has no solution."""


class InfeasibleConstraintsError(RetimingError):
    """A difference-constraint system has no solution (negative cycle)."""


class UnboundedObjectiveError(RetimingError):
    """The retiming LP objective is unbounded on the feasible region."""


class InfeasiblePeriodError(RetimingError):
    """The requested clock period admits no legal retiming."""

    def __init__(self, period, message=None):
        self.period = period
        super().__init__(message or f"no retiming achieves clock period {period}")


class CheckpointError(ReproError):
    """A checkpoint store could not be created, written, or bound."""


class SealedFileError(ReproError):
    """A sealed file (see :func:`repro.ioutil.read_sealed`) was rejected.

    ``reason`` says why in the words the stores log ("truncated (no
    header line)", "checksum mismatch ...", ...). ``field`` names the
    header field of a ``<field> mismatch`` and is ``None`` otherwise.
    """

    def __init__(self, path, reason: str, field=None):
        self.reason = reason
        self.field = field
        super().__init__(f"{path}: {reason}")


class TelemetryError(ReproError):
    """The trace file cannot be written.

    Raised before the first stage when the path is unusable (its
    parent is a regular file, or the path is a directory), so the CLI
    reports one line and exits 2 instead of planning for nothing; and
    when the run ends cleanly but a write to the stream failed.
    """


class VerificationError(ReproError):
    """Independent plan certification failed (or could not run).

    Raised when a :class:`repro.verify.certificate.VerificationReport`
    rejects a plan in a context that demanded a certified one (e.g.
    ``table1 --verify``), or when an artifact offered for audit is
    corrupt. ``table1`` maps a failed certification to exit code 5;
    ``repro verify`` reports an artifact it cannot load with exit 2.
    """


class ServeError(ReproError):
    """The planning service hit a protocol or spool-level problem.

    Raised by :mod:`repro.serve` for malformed job records, unusable
    spool directories, and client/server wire errors.
    """


class QueueFullError(ServeError):
    """A job submission was shed because the queue is at capacity.

    The server maps it to HTTP 429 and the ``submit`` CLI to the
    "busy" exit code (6); the spool never grows past its bound.
    """

    def __init__(self, capacity, message=None):
        self.capacity = capacity
        super().__init__(
            message or f"job queue is full ({capacity} queued jobs); retry later"
        )


class InterruptedRunError(KeyboardInterrupt):
    """A run was interrupted by SIGINT/SIGTERM (or a simulated kill).

    Deliberately *not* a :class:`ReproError`: per-item fault isolation
    catches ``ReproError``, and an interrupt must stop the whole run,
    not be recorded as one failed circuit. The CLI converts it to the
    "interrupted, resumable" exit code (4).
    """

    def __init__(self, signum=None, message=None):
        self.signum = signum
        if message is None:
            message = (
                f"interrupted by signal {signum}"
                if signum is not None
                else "run interrupted"
            )
        super().__init__(message)


class FloorplanError(ReproError):
    """Floorplanning failed (e.g. impossible block shapes)."""


class RoutingError(ReproError):
    """Global routing failed (e.g. unreachable pins)."""


class PlanningError(ReproError):
    """The end-to-end interconnect planning flow failed."""


class StageTimeoutError(PlanningError):
    """A pipeline stage blew its wall-clock deadline."""

    def __init__(self, stage, timeout, message=None):
        self.stage = stage
        self.timeout = timeout
        super().__init__(
            message or f"stage {stage!r} exceeded its {timeout:g}s deadline"
        )


class StageFailedError(PlanningError):
    """A pipeline stage failed after exhausting its retries.

    ``attempts`` holds the full attempt history
    (:class:`repro.resilience.ledger.StageAttempt` records), so callers
    can see every error and timing of the tries.
    """

    def __init__(self, stage, attempts, message=None):
        self.stage = stage
        self.attempts = list(attempts)
        if message is None:
            errors = "; ".join(
                a.error for a in self.attempts if getattr(a, "error", None)
            )
            message = (
                f"stage {stage!r} failed after "
                f"{len(self.attempts)} attempt(s)"
                + (f": {errors}" if errors else "")
            )
        super().__init__(message)
